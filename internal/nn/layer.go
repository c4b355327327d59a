// Package nn implements the feed-forward neural networks used for GAN
// training: fully-connected layers with hand-derived backpropagation,
// the activation functions from the paper's Table I, binary cross-entropy
// and softmax losses, and SGD/Adam optimizers with mutable hyperparameters
// (the coevolutionary algorithm mutates the Adam learning rate at runtime).
//
// Every layer speaks one destination-passing protocol: Forward writes the
// layer output into a caller-owned matrix and caches whatever the backward
// pass needs, Backward receives ∂L/∂output and writes ∂L/∂input into a
// caller-owned matrix while accumulating parameter gradients, and
// optimizers consume (params, grads) pairs. A Workspace owns those
// matrices per layer slot, so steady-state passes do not allocate.
package nn

import (
	"cellgan/internal/tensor"
)

// Layer is one differentiable stage of a network. Implementations cache
// forward-pass state, so a Layer must not be shared between concurrently
// training networks; use Clone for that.
type Layer interface {
	// Forward computes the layer output for a batch (rows = samples) into
	// dst (resized as needed) and returns the output, which is dst except
	// for pass-through layers (eval-mode dropout returns x). Auxiliary
	// buffers come from s and must stay untouched until the matching
	// Backward. dst must not alias x.
	Forward(s *LayerScratch, dst, x *tensor.Mat) *tensor.Mat
	// Backward receives ∂L/∂output for the most recent Forward on the same
	// s, accumulates parameter gradients, and writes ∂L/∂input into dst
	// (resized as needed), returning it; pass-through layers return grad.
	// dst must not alias grad.
	Backward(s *LayerScratch, dst, grad *tensor.Mat) *tensor.Mat
	// Params returns the trainable parameter matrices (possibly empty).
	Params() []*tensor.Mat
	// Grads returns the gradient accumulators, aligned with Params.
	Grads() []*tensor.Mat
	// ZeroGrads clears the gradient accumulators.
	ZeroGrads()
	// Clone returns an independent copy of the layer (parameters copied,
	// caches not shared).
	Clone() Layer
}

// Sized is implemented by layers with a fixed output width, letting
// callers determine a network's output dimension without a probe forward
// pass.
type Sized interface {
	// OutputWidth returns the per-sample output length of the layer.
	OutputWidth() int
}

// Linear is a fully-connected layer computing y = x·W + b.
type Linear struct {
	W *tensor.Mat // in×out
	B *tensor.Mat // 1×out

	dW *tensor.Mat
	dB *tensor.Mat

	x *tensor.Mat // cached input
}

// NewLinear returns a Linear layer with Xavier-uniform weights and zero
// biases, drawing from rng.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		W:  tensor.New(in, out),
		B:  tensor.New(1, out),
		dW: tensor.New(in, out),
		dB: tensor.New(1, out),
	}
	tensor.XavierUniform(l.W, in, out, rng)
	return l
}

// In returns the input width of the layer.
func (l *Linear) In() int { return l.W.Rows }

// Out returns the output width of the layer.
func (l *Linear) Out() int { return l.W.Cols }

// OutputWidth implements Sized.
func (l *Linear) OutputWidth() int { return l.W.Cols }

// Forward computes x·W + b into dst, reusing dst's storage: one fused
// MatMulInto plus the in-place broadcast bias add, no temporaries.
func (l *Linear) Forward(_ *LayerScratch, dst, x *tensor.Mat) *tensor.Mat {
	l.x = x
	tensor.MatMulInto(dst, x, l.W)
	dst.AddRowVec(l.B)
	return dst
}

// Backward accumulates dW += xᵀ·grad and dB += colsums(grad) and writes
// grad·Wᵀ into dst. The parameter-gradient accumulations are fused into
// the kernels (AddMatMulT1Into/AddColSumsInto), so the whole backward pass
// of the layer performs zero allocations once dst has capacity.
func (l *Linear) Backward(_ *LayerScratch, dst, grad *tensor.Mat) *tensor.Mat {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	tensor.AddMatMulT1Into(l.dW, l.x, grad)
	tensor.AddColSumsInto(l.dB, grad)
	return tensor.MatMulT2Into(dst, grad, l.W)
}

// Params returns {W, B}.
func (l *Linear) Params() []*tensor.Mat { return []*tensor.Mat{l.W, l.B} }

// Grads returns {dW, dB}.
func (l *Linear) Grads() []*tensor.Mat { return []*tensor.Mat{l.dW, l.dB} }

// ZeroGrads clears the accumulated gradients.
func (l *Linear) ZeroGrads() {
	l.dW.Zero()
	l.dB.Zero()
}

// Clone returns a deep copy of the layer (without cached activations).
func (l *Linear) Clone() Layer {
	return &Linear{
		W:  l.W.Clone(),
		B:  l.B.Clone(),
		dW: tensor.New(l.W.Rows, l.W.Cols),
		dB: tensor.New(1, l.B.Cols),
	}
}
