package main

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"testing"

	"cellgan/internal/checkpoint"
	"cellgan/internal/cluster"
	"cellgan/internal/core"
	"cellgan/internal/tensor"
)

// The traced lockstep runner is only a valid stand-in for the program's runners if
// it computes the same thing: its final states must equal theirs byte for
// byte.

func TestLockstepMatchesRunParallel(t *testing.T) {
	cfg := paperConfig(7)
	cfg.BatchesPerIteration = 1
	ref, err := core.RunParallel(cfg, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := runLockstep(cfg, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameStates(ref.Full, d.fulls); err != nil {
		t.Fatal(err)
	}
}

func TestLockstepMatchesClusterJob(t *testing.T) {
	cfg := tinyConfig(7)
	cfg.Iterations = 3
	job, err := cluster.RunJob(cluster.MasterOptions{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	fulls, err := job.FullStates()
	if err != nil {
		t.Fatal(err)
	}
	d, err := runLockstep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameStates(fulls, d.fulls); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40},  // overlaps the first
		{Parent: 1, Start: 90, End: 120}, // runs past the parent
	}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

func TestRunRungChecksEveryResponse(t *testing.T) {
	cfg := tinyConfig(7)
	rng := tensor.NewRNG(7)
	params, err := core.BuildGenerator(cfg, rng).EncodeParams()
	if err != nil {
		t.Fatal(err)
	}
	art := &checkpoint.MixtureArtifact{Cfg: cfg, Ranks: []int{0}, Weights: []float64{1}, GenParams: [][]byte{params}}
	srv, err := newServer(art, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	w := runRung(srv.h, 2000, schedule(rng, 2000, 200), newTracer())
	if w.failed != 0 || len(w.latMs)+w.overloaded != 200 {
		t.Fatalf("served %d, overloaded %d, failed %d (first: %v)", len(w.latMs), w.overloaded, w.failed, w.firstErr)
	}

	// A response of the wrong length fails the check.
	bad := http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(rw, `{"n":1,"dim":784,"encoding":"base64","data":"%s"}`,
			base64.StdEncoding.EncodeToString(make([]byte, 8*784-1)))
	})
	if w := runRung(bad, 1000, schedule(rng, 1000, 3), nil); w.failed != 3 {
		t.Fatalf("failed %d of 3 malformed responses", w.failed)
	}
}
