package core

import (
	"bytes"
	"testing"

	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// TestCellIterateBitExactWithWorkspace trains two same-seed cells — one
// reusing its workspace, one handed a fresh workspace every iteration — and
// requires identical per-iteration stats and a byte-identical full-state
// checkpoint: buffer reuse must never leak into training results.
func TestCellIterateBitExactWithWorkspace(t *testing.T) {
	cfg := tinyConfig()
	cfg.LossSet = "bce,minimax,lsgan,wgan" // exercise every loss's WS path
	cfg.LossMutationProbability = 0.5

	cWS, _ := newTestCell(t, cfg, 0)
	cFresh, _ := newTestCell(t, cfg, 0)

	for i := 0; i < 4; i++ {
		sWS, err := cWS.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		cFresh.ws = newCellWorkspace()
		sFresh, err := cFresh.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		if sWS != sFresh {
			t.Fatalf("iteration %d stats diverge:\nws:    %+v\nfresh: %+v", i, sWS, sFresh)
		}
	}

	fWS, err := cWS.FullState()
	if err != nil {
		t.Fatal(err)
	}
	fFresh, err := cFresh.FullState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fWS.Marshal(), fFresh.Marshal()) {
		t.Fatal("reused-workspace checkpoint differs from fresh-workspace checkpoint")
	}
}

// TestCNNCellIterateBitExactWithWorkspace is the convolutional form of the
// invariant above: a CNN genome (DCGAN-style conv stacks) whose im2col
// scratch buffers are reused must match one on fresh buffers every
// iteration bit for bit, stats and checkpoint alike. (The im2col lowering
// itself is checked against the direct-loop oracle in internal/nn.)
func TestCNNCellIterateBitExactWithWorkspace(t *testing.T) {
	cfg := tinyConfig()
	cfg.NetworkType = "CNN"
	cfg.BatchSize = 4

	cWS, _ := newTestCell(t, cfg, 0)
	cFresh, _ := newTestCell(t, cfg, 0)

	for i := 0; i < 2; i++ {
		sWS, err := cWS.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		cFresh.ws = newCellWorkspace()
		sFresh, err := cFresh.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		if sWS != sFresh {
			t.Fatalf("iteration %d stats diverge:\nws:    %+v\nfresh: %+v", i, sWS, sFresh)
		}
	}

	fWS, err := cWS.FullState()
	if err != nil {
		t.Fatal(err)
	}
	fFresh, err := cFresh.FullState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fWS.Marshal(), fFresh.Marshal()) {
		t.Fatal("CNN reused-workspace checkpoint differs from fresh-workspace checkpoint")
	}
}

// mixtureForTest builds a two-component mixture of tiny generators.
func mixtureForTest(t *testing.T) (*Mixture, *nn.Network) {
	t.Helper()
	rng := tensor.NewRNG(61)
	gens := map[int]*nn.Network{
		0: nn.MLP([]int{4, 8, 6}, func() nn.Layer { return nn.NewTanh() }, func() nn.Layer { return nn.NewTanh() }, rng),
		1: nn.MLP([]int{4, 8, 6}, func() nn.Layer { return nn.NewTanh() }, func() nn.Layer { return nn.NewTanh() }, rng),
	}
	m, err := NewMixture(gens)
	if err != nil {
		t.Fatal(err)
	}
	m.Weights[0], m.Weights[1] = 0.7, 0.3
	disc := nn.MLP([]int{6, 8, 1}, func() nn.Layer { return nn.NewLeakyReLU(0.2) }, nil, tensor.NewRNG(62))
	return m, disc
}

// TestSampleWithBitIdentical checks SampleWith on a reused workspace
// against Sample (a fresh workspace) from equal RNG states.
func TestSampleWithBitIdentical(t *testing.T) {
	m, _ := mixtureForTest(t)
	ws := NewSampleWorkspace()
	for call, n := range []int{17, 5, 0, 17} {
		a := m.SampleWith(ws, n, 4, tensor.NewRNG(uint64(70+call)))
		b := m.Sample(n, 4, tensor.NewRNG(uint64(70+call)))
		if !a.Equal(b) {
			t.Fatalf("call %d (n=%d): SampleWith differs from Sample", call, n)
		}
	}
}

// TestEvolveWeightsWSBitIdentical runs the (1+1)-ES on twin mixtures — one
// reusing a workspace, one on a fresh workspace every step — and demands
// identical weights and fitness trajectories, including across accepted
// proposals, where the reused workspace recycles the displaced weights
// slice.
func TestEvolveWeightsWSBitIdentical(t *testing.T) {
	mA, disc := mixtureForTest(t)
	mB, _ := mixtureForTest(t)
	ws := NewSampleWorkspace()
	rngA := tensor.NewRNG(81)
	rngB := tensor.NewRNG(81)
	accepted := 0
	for i := 0; i < 12; i++ {
		fitA, okA := mA.EvolveWeights(ws, disc, 0.3, 8, 4, rngA)
		fitB, okB := mB.EvolveWeights(NewSampleWorkspace(), disc, 0.3, 8, 4, rngB)
		if fitA != fitB || okA != okB {
			t.Fatalf("step %d: reused (%v,%v) vs fresh (%v,%v)", i, fitA, okA, fitB, okB)
		}
		if okA {
			accepted++
		}
		for j := range mA.Weights {
			if mA.Weights[j] != mB.Weights[j] {
				t.Fatalf("step %d: weight %d diverges", i, j)
			}
		}
	}
	if accepted == 0 {
		t.Log("no proposal accepted in 12 steps; slice-recycling path not exercised")
	}
}
