package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"cellgan/internal/config"
)

// TestSyncRunsGOMAXPROCSIndependent turns the claim that synchronous
// training is GOMAXPROCS-independent into a check: RunSequential and
// RunParallel at GOMAXPROCS 1 and 2 must leave byte-identical full-state
// checkpoints for every cell, for an MLP and a CNN genome. The tiny
// configs still cross the kernels' parallel-dispatch threshold (the
// 784-wide output layer), so the matmul chunk decomposition is covered,
// not just the cell goroutines.
func TestSyncRunsGOMAXPROCSIndependent(t *testing.T) {
	mlp := tinyConfig()
	cnn := tinyConfig()
	cnn.NetworkType = "CNN"
	cnn.BatchSize = 4
	runners := []struct {
		name string
		run  func(config.Config, RunOptions) (*Result, error)
	}{{"seq", RunSequential}, {"par", RunParallel}}

	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{{"mlp", mlp}, {"cnn", cnn}} {
		t.Run(tc.name, func(t *testing.T) {
			var want [][]byte
			var wantRun string
			for _, procs := range []int{1, 2} {
				for _, r := range runners {
					got := runAtGOMAXPROCS(t, procs, func() (*Result, error) { return r.run(tc.cfg, RunOptions{}) })
					run := fmt.Sprintf("%s@GOMAXPROCS=%d", r.name, procs)
					if want == nil {
						want, wantRun = got, run
						continue
					}
					for rank := range want {
						if !bytes.Equal(got[rank], want[rank]) {
							t.Fatalf("cell %d checkpoint of %s differs from %s", rank, run, wantRun)
						}
					}
				}
			}
		})
	}
}

// runAtGOMAXPROCS runs f with GOMAXPROCS set to procs and returns the
// marshalled full state of every cell.
func runAtGOMAXPROCS(t *testing.T, procs int, f func() (*Result, error)) [][]byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res, err := f()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Full) == 0 {
		t.Fatal("run returned no cell states")
	}
	out := make([][]byte, len(res.Full))
	for i, fs := range res.Full {
		out[i] = fs.Marshal()
	}
	return out
}
