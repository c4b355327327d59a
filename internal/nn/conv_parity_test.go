package nn

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"cellgan/internal/tensor"
)

// checkGradsDirect is checkGrads through the direct-loop oracle, so the
// oracle itself is validated against numerical differentiation
// independently of the im2col lowering it checks.
func checkGradsDirect(t *testing.T, net *Network, x *tensor.Mat, loss func(out *tensor.Mat) (float64, *tensor.Mat)) {
	t.Helper()
	d := newDirectNet(net)
	net.ZeroGrads()
	out := d.forward(x)
	_, dOut := loss(out)
	d.backward(dOut)
	analytic := net.Grads()

	numeric := numericalGrad(net, func() float64 {
		l, _ := loss(d.forward(x))
		return l
	}, 1e-6)

	for pi := range analytic {
		for i := range analytic[pi].Data {
			a, n := analytic[pi].Data[i], numeric[pi].Data[i]
			if math.Abs(a-n) > 1e-4*(1+math.Abs(a)+math.Abs(n)) {
				t.Fatalf("param %d elem %d: analytic %v numeric %v", pi, i, a, n)
			}
		}
	}
}

// TestGradCheckConv2DGeometries sweeps awkward geometries — 1×1 kernels
// (with and without stride), asymmetric inputs, pad larger than stride —
// through both the direct and the im2col backward paths.
func TestGradCheckConv2DGeometries(t *testing.T) {
	cases := []struct{ inC, inH, inW, outC, k, s, p int }{
		{1, 5, 7, 2, 1, 1, 0}, // 1×1 kernel, asymmetric input
		{1, 5, 5, 2, 1, 2, 0}, // 1×1 kernel with stride
		{2, 6, 4, 3, 3, 1, 2}, // pad 2, stride 1
		{1, 7, 5, 2, 3, 2, 1}, // strided, padded, asymmetric
		{2, 4, 6, 1, 2, 2, 1}, // even kernel
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("c%d_%dx%d_k%d_s%d_p%d", tc.inC, tc.inH, tc.inW, tc.k, tc.s, tc.p), func(t *testing.T) {
			mk := func() *Network {
				rng := tensor.NewRNG(61)
				conv, err := NewConv2D(tc.inC, tc.inH, tc.inW, tc.outC, tc.k, tc.s, tc.p, rng)
				if err != nil {
					t.Fatalf("conv: %v", err)
				}
				return NewNetwork(conv, NewTanh(), NewLinear(conv.OutputWidth(), 2, rng))
			}
			x := tensor.New(3, tc.inC*tc.inH*tc.inW)
			tensor.GaussianFill(x, 0, 1, tensor.NewRNG(62))
			y := tensor.Full(3, 2, 0.5)
			loss := func(out *tensor.Mat) (float64, *tensor.Mat) { return MSELoss(out, y) }
			checkGrads(t, mk(), x, loss)
			checkGradsDirect(t, mk(), x, loss)
		})
	}
}

// TestGradCheckConvTranspose2DGeometries does the same sweep for the
// transposed convolution, including a strided 1×1 kernel whose scatter
// leaves holes in the output.
func TestGradCheckConvTranspose2DGeometries(t *testing.T) {
	cases := []struct{ inC, inH, inW, outC, k, s, p int }{
		{2, 3, 4, 1, 1, 1, 0}, // 1×1 kernel, asymmetric input
		{1, 2, 2, 2, 1, 2, 0}, // strided 1×1: output has untouched holes
		{1, 3, 3, 2, 3, 2, 1}, // DCGAN-style upsample
		{2, 2, 3, 2, 4, 2, 1}, // even kernel, asymmetric
		{1, 4, 2, 1, 3, 3, 2}, // stride 3, pad 2
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("c%d_%dx%d_k%d_s%d_p%d", tc.inC, tc.inH, tc.inW, tc.k, tc.s, tc.p), func(t *testing.T) {
			mk := func() *Network {
				rng := tensor.NewRNG(63)
				ct, err := NewConvTranspose2D(tc.inC, tc.inH, tc.inW, tc.outC, tc.k, tc.s, tc.p, rng)
				if err != nil {
					t.Fatalf("convT: %v", err)
				}
				return NewNetwork(ct, NewTanh(), NewLinear(ct.OutputWidth(), 2, rng))
			}
			x := tensor.New(3, tc.inC*tc.inH*tc.inW)
			tensor.GaussianFill(x, 0, 1, tensor.NewRNG(64))
			y := tensor.Full(3, 2, 0.5)
			loss := func(out *tensor.Mat) (float64, *tensor.Mat) { return MSELoss(out, y) }
			checkGrads(t, mk(), x, loss)
			checkGradsDirect(t, mk(), x, loss)
		})
	}
}

// dcganTestPair builds twin (generator, discriminator) conv stacks from
// fixed seeds — a miniature of core/genome.go's CNN topology, plus a
// dropout layer so it rides along in both passes.
func dcganTestPair(t *testing.T) (gen, disc *Network) {
	t.Helper()
	rng := tensor.NewRNG(71)
	ct1, err := NewConvTranspose2D(2, 3, 3, 2, 3, 2, 1, rng) // 2×3×3 → 2×5×5
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := NewConvTranspose2D(2, 5, 5, 1, 3, 1, 1, rng) // 2×5×5 → 1×5×5
	if err != nil {
		t.Fatal(err)
	}
	gen = NewNetwork(NewLinear(6, 2*3*3, rng), NewTanh(), ct1, NewTanh(), ct2, NewTanh())
	c1, err := NewConv2D(1, 5, 5, 3, 3, 2, 1, rng) // 1×5×5 → 3×3×3
	if err != nil {
		t.Fatal(err)
	}
	disc = NewNetwork(c1, NewLeakyReLU(0.2), NewDropout(0.25, tensor.NewRNG(72)), NewLinear(3*3*3, 1, rng))
	return gen, disc
}

// netPass is one network's forward and matching backward.
type netPass struct {
	forward, backward func(*tensor.Mat) *tensor.Mat
}

func workspacePass(net *Network) netPass {
	ws := NewWorkspace()
	return netPass{
		forward:  func(x *tensor.Mat) *tensor.Mat { return net.ForwardWS(ws, x) },
		backward: func(g *tensor.Mat) *tensor.Mat { return net.BackwardWS(ws, g) },
	}
}

func directPass(net *Network) netPass {
	d := newDirectNet(net)
	return netPass{forward: d.forward, backward: d.backward}
}

// TestConvIterateBitExactWithWorkspace is the conv-stack version of
// core's TestCellIterateBitExactWithWorkspace: twin GAN pairs train with
// Adam — one through workspaces, one through the direct-loop oracle —
// and every output, input gradient, parameter gradient and the final
// serialized checkpoint must be byte-identical.
func TestConvIterateBitExactWithWorkspace(t *testing.T) {
	genA, discA := dcganTestPair(t)
	genB, discB := dcganTestPair(t)
	optGA, optDA := NewAdam(2e-3), NewAdam(2e-3)
	optGB, optDB := NewAdam(2e-3), NewAdam(2e-3)
	genWS, discWS := workspacePass(genA), workspacePass(discA)
	genDirect, discDirect := directPass(genB), directPass(discB)
	rngA, rngB := tensor.NewRNG(73), tensor.NewRNG(73)

	step := func(gen, disc *Network, optG, optD Optimizer, gp, dp netPass, rng *tensor.RNG) (*tensor.Mat, *tensor.Mat, *tensor.Mat) {
		z := tensor.New(4, 6)
		tensor.GaussianFill(z, 0, 1, rng)
		real := tensor.New(4, 25)
		tensor.GaussianFill(real, 0, 0.5, rng)

		// Discriminator step on real data.
		disc.ZeroGrads()
		logits := dp.forward(real)
		_, dReal := BCEWithLogitsLoss(logits, tensor.Full(4, 1, 1))
		dp.backward(dReal)
		optD.Step(disc)

		// Generator step through the discriminator.
		gen.ZeroGrads()
		disc.ZeroGrads()
		fake := gp.forward(z)
		fLogits := dp.forward(fake)
		_, dFake := BCEWithLogitsLoss(fLogits, tensor.Full(4, 1, 1))
		dImg := dp.backward(dFake)
		dz := gp.backward(dImg)
		optG.Step(gen)
		return fake, fLogits, dz
	}

	for i := 0; i < 4; i++ {
		fakeA, logitsA, dzA := step(genA, discA, optGA, optDA, genWS, discWS, rngA)
		fakeB, logitsB, dzB := step(genB, discB, optGB, optDB, genDirect, discDirect, rngB)
		if !fakeA.Equal(fakeB) {
			t.Fatalf("iter %d: generator outputs differ between workspace and direct paths", i)
		}
		if !logitsA.Equal(logitsB) {
			t.Fatalf("iter %d: discriminator logits differ", i)
		}
		if !dzA.Equal(dzB) {
			t.Fatalf("iter %d: latent gradients differ", i)
		}
		ga, gb := genA.Grads(), genB.Grads()
		for pi := range ga {
			if !ga[pi].Equal(gb[pi]) {
				t.Fatalf("iter %d: generator grad %d differs", i, pi)
			}
		}
		da, db := discA.Grads(), discB.Grads()
		for pi := range da {
			if !da[pi].Equal(db[pi]) {
				t.Fatalf("iter %d: discriminator grad %d differs", i, pi)
			}
		}
	}
	for _, pair := range []struct{ a, b *Network }{{genA, genB}, {discA, discB}} {
		pa, err := pair.a.EncodeParams()
		if err != nil {
			t.Fatal(err)
		}
		pb, err := pair.b.EncodeParams()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatal("workspace-trained conv checkpoint differs from direct-path checkpoint")
		}
	}
}

// TestDropoutIntoParity pins a Dropout pass into reused destination
// buffers against one into fresh buffers with identical RNG streams, in
// both train and eval mode.
func TestDropoutIntoParity(t *testing.T) {
	a := NewDropout(0.4, tensor.NewRNG(81))
	b := NewDropout(0.4, tensor.NewRNG(81))
	x := tensor.New(5, 7)
	tensor.GaussianFill(x, 0, 1, tensor.NewRNG(82))
	g := tensor.New(5, 7)
	tensor.GaussianFill(g, 0, 1, tensor.NewRNG(83))

	s := new(LayerScratch)
	dst, dstG := new(tensor.Mat), new(tensor.Mat)
	for pass := 0; pass < 3; pass++ {
		outA := a.Forward(s, dst, x)
		outB := b.Forward(s, new(tensor.Mat), x)
		if !outA.Equal(outB) {
			t.Fatalf("pass %d: dropout Forward into reused buffer differs", pass)
		}
		dxA := a.Backward(s, dstG, g)
		dxB := b.Backward(s, new(tensor.Mat), g)
		if !dxA.Equal(dxB) {
			t.Fatalf("pass %d: dropout Backward into reused buffer differs", pass)
		}
	}

	a.Train = false
	if a.Forward(s, dst, x) != x {
		t.Fatal("eval-mode dropout must return the input unchanged")
	}
	if a.Backward(s, dstG, g) != g {
		t.Fatal("eval-mode dropout backward must pass the gradient through")
	}
}

// TestDropoutIntoAllocs guards that a steady-state train-mode dropout pass
// into reused buffers performs zero allocations.
func TestDropoutIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	d := NewDropout(0.3, tensor.NewRNG(84))
	x := tensor.New(8, 16)
	tensor.GaussianFill(x, 0, 1, tensor.NewRNG(85))
	g := tensor.New(8, 16)
	tensor.GaussianFill(g, 0, 1, tensor.NewRNG(86))
	s := new(LayerScratch)
	dst, dstG := new(tensor.Mat), new(tensor.Mat)
	pass := func() {
		d.Forward(s, dst, x)
		d.Backward(s, dstG, g)
	}
	pass() // warm the mask and destination buffers
	if allocs := testing.AllocsPerRun(20, pass); allocs > 0 {
		t.Errorf("dropout pass: %.0f allocs per run, want 0", allocs)
	}
}
