package nn

import (
	"cellgan/internal/tensor"
)

// Workspace owns the per-layer activation, gradient and scratch buffers
// for one network's forward/backward pass. Buffers are lazily created on
// first use and resized (which only reallocates when a batch-shape change
// outgrows capacity) on every subsequent pass, so a reused Workspace makes
// steady-state passes allocation-free.
//
// A Workspace is owned by exactly one goroutine and must not be shared
// between concurrently running networks. It may be shared across networks
// sequentially (e.g. one workspace per cell, reused by the generator and
// discriminator in turn) as long as each forward→backward pair completes
// on the same workspace before it is handed to the next network: layer
// caches and the matrices returned by ForwardWS/BackwardWS alias workspace
// storage.
type Workspace struct {
	slots []*layerSlot // slots[i] holds layer i's buffers
}

// layerSlot holds one layer's buffers: its output, its ∂L/∂input and its
// auxiliary scratch.
type layerSlot struct {
	act, grad tensor.Mat
	scratch   LayerScratch
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// LayerScratch is a bag of lazily-created auxiliary matrices for one layer
// slot of a Workspace (the im2col patch matrices of the conv layers live
// here). Buffers are identified by index; Buf grows the bag on demand and
// the matrices reuse their backing storage across passes via Resize.
type LayerScratch struct {
	bufs []*tensor.Mat
}

// Buf returns the i-th scratch matrix, creating empty matrices as needed.
func (s *LayerScratch) Buf(i int) *tensor.Mat {
	for len(s.bufs) <= i {
		s.bufs = append(s.bufs, new(tensor.Mat))
	}
	return s.bufs[i]
}

// grow extends the workspace until it holds at least n layer slots.
func (ws *Workspace) grow(n int) {
	for len(ws.slots) < n {
		ws.slots = append(ws.slots, new(layerSlot))
	}
}

// ForwardWS propagates a batch through every layer, writing each layer's
// output into ws-owned buffers. The returned matrix aliases workspace
// storage and is only valid until the next pass through ws.
func (n *Network) ForwardWS(ws *Workspace, x *tensor.Mat) *tensor.Mat {
	ws.grow(len(n.Layers))
	for i, l := range n.Layers {
		s := ws.slots[i]
		x = l.Forward(&s.scratch, &s.act, x)
	}
	return x
}

// BackwardWS propagates ∂L/∂output back through every layer, accumulating
// parameter gradients into the layers and intermediate input-gradients
// into ws-owned buffers. ws must be the workspace of the preceding
// ForwardWS. The returned ∂L/∂input aliases workspace storage.
func (n *Network) BackwardWS(ws *Workspace, grad *tensor.Mat) *tensor.Mat {
	ws.grow(len(n.Layers))
	for i := len(n.Layers) - 1; i >= 0; i-- {
		s := ws.slots[i]
		grad = n.Layers[i].Backward(&s.scratch, &s.grad, grad)
	}
	return grad
}
