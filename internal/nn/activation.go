package nn

import (
	"math"

	"cellgan/internal/tensor"
)

// statelessBase implements the no-parameter parts of Layer for activations.
type statelessBase struct{}

func (statelessBase) Params() []*tensor.Mat { return nil }
func (statelessBase) Grads() []*tensor.Mat  { return nil }
func (statelessBase) ZeroGrads()            {}

// Tanh is the hyperbolic-tangent activation (the paper's Table I choice).
type Tanh struct {
	statelessBase
	out *tensor.Mat
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise into dst.
func (t *Tanh) Forward(_ *LayerScratch, dst, x *tensor.Mat) *tensor.Mat {
	t.out = tensor.ApplyInto(dst, x, math.Tanh)
	return t.out
}

// Backward writes grad ⊙ (1 - tanh²) into dst.
func (t *Tanh) Backward(_ *LayerScratch, dst, grad *tensor.Mat) *tensor.Mat {
	if t.out == nil {
		panic("nn: Tanh.Backward before Forward")
	}
	dst.Resize(grad.Rows, grad.Cols)
	for i, y := range t.out.Data {
		dst.Data[i] = grad.Data[i] * (1 - y*y)
	}
	return dst
}

// Clone returns a fresh Tanh layer.
func (t *Tanh) Clone() Layer { return &Tanh{} }

// Sigmoid is the logistic activation.
type Sigmoid struct {
	statelessBase
	out *tensor.Mat
}

// NewSigmoid returns a Sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// sigmoid is a numerically stable logistic function.
func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Forward applies the logistic function element-wise into dst.
func (s *Sigmoid) Forward(_ *LayerScratch, dst, x *tensor.Mat) *tensor.Mat {
	s.out = tensor.ApplyInto(dst, x, sigmoid)
	return s.out
}

// Backward writes grad ⊙ σ(1-σ) into dst.
func (s *Sigmoid) Backward(_ *LayerScratch, dst, grad *tensor.Mat) *tensor.Mat {
	if s.out == nil {
		panic("nn: Sigmoid.Backward before Forward")
	}
	dst.Resize(grad.Rows, grad.Cols)
	for i, y := range s.out.Data {
		dst.Data[i] = grad.Data[i] * (y * (1 - y))
	}
	return dst
}

// Clone returns a fresh Sigmoid layer.
func (s *Sigmoid) Clone() Layer { return &Sigmoid{} }

// LeakyReLU is max(x, alpha·x); Lipizzaner's discriminators use alpha=0.2.
type LeakyReLU struct {
	statelessBase
	Alpha float64
	x     *tensor.Mat
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies the leaky rectifier element-wise into dst.
func (l *LeakyReLU) Forward(_ *LayerScratch, dst, x *tensor.Mat) *tensor.Mat {
	l.x = x
	return tensor.ApplyInto(dst, x, func(v float64) float64 {
		if v >= 0 {
			return v
		}
		return l.Alpha * v
	})
}

// Backward writes the masked gradient into dst.
func (l *LeakyReLU) Backward(_ *LayerScratch, dst, grad *tensor.Mat) *tensor.Mat {
	if l.x == nil {
		panic("nn: LeakyReLU.Backward before Forward")
	}
	dst.Resize(grad.Rows, grad.Cols)
	for i, v := range l.x.Data {
		g := grad.Data[i]
		if v < 0 {
			g *= l.Alpha
		}
		dst.Data[i] = g
	}
	return dst
}

// Clone returns a fresh LeakyReLU with the same slope.
func (l *LeakyReLU) Clone() Layer { return &LeakyReLU{Alpha: l.Alpha} }

// ReLU is the plain rectifier.
type ReLU struct {
	statelessBase
	x *tensor.Mat
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) element-wise into dst.
func (r *ReLU) Forward(_ *LayerScratch, dst, x *tensor.Mat) *tensor.Mat {
	r.x = x
	return tensor.ApplyInto(dst, x, func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	})
}

// Backward writes the masked gradient into dst.
func (r *ReLU) Backward(_ *LayerScratch, dst, grad *tensor.Mat) *tensor.Mat {
	if r.x == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	dst.Resize(grad.Rows, grad.Cols)
	for i, v := range r.x.Data {
		if v <= 0 {
			dst.Data[i] = 0
		} else {
			dst.Data[i] = grad.Data[i]
		}
	}
	return dst
}

// Clone returns a fresh ReLU.
func (r *ReLU) Clone() Layer { return &ReLU{} }
