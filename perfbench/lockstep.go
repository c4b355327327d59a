package main

import (
	"fmt"
	"sync"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/mpi"
	"cellgan/internal/profile"
)

// lockstepResult is what the benchmark's lockstep runner leaves behind.
type lockstepResult struct {
	fulls   []*core.FullState
	elapsed time.Duration
	// iterEnd[k][r] is when rank r finished Iterate for iteration k+1.
	iterEnd [][]time.Duration
	comm    []*mpi.CommStats
	prof    *profile.Profiler
	// stateBytes is the size of one marshalled cell state.
	stateBytes int
}

// runLockstep trains cfg's grid with one goroutine per cell over an
// in-process MPI world, built only from the public calls a cell runner
// needs: NewCellWithData, Iterate, State, Marshal, Allgather,
// UnmarshalCellState and SetNeighbors. Its arithmetic is that of
// core.RunParallel, so the final states are byte-identical; unlike
// RunParallel it can put a span around each call. Allgather time is added
// to the profiler as the "gather" routine, as RunParallel does.
func runLockstep(cfg config.Config, tr *tracer) (*lockstepResult, error) {
	g, err := core.BuildGridFor(cfg)
	if err != nil {
		return nil, err
	}
	n := g.Size()
	world, err := mpi.NewWorld(n)
	if err != nil {
		return nil, err
	}
	defer world.Close()
	res := &lockstepResult{
		fulls:   make([]*core.FullState, n),
		iterEnd: make([][]time.Duration, cfg.Iterations),
		comm:    make([]*mpi.CommStats, n),
		prof:    profile.New(),
	}
	for k := range res.iterEnd {
		res.iterEnd[k] = make([]time.Duration, n)
	}
	runID, endRun := tr.begin("lockstep.run", 0)
	started := time.Now()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		res.comm[rank] = new(mpi.CommStats)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = func() error {
				raw, err := world.Comm(rank)
				if err != nil {
					return err
				}
				comm := mpi.InstrumentComm(raw, res.comm[rank])
				var cell *core.Cell
				tr.do("core.NewCellWithData", runID, func() {
					cell, err = core.NewCellWithData(cfg, rank, g, res.prof, nil)
				})
				if err != nil {
					return err
				}
				if err := exchange(cell, comm, tr, runID, res); err != nil {
					return err
				}
				for cell.Iteration() < cfg.Iterations {
					stepID, endStep := tr.begin("lockstep.step", runID)
					tr.do("core.Iterate", stepID, func() { _, err = cell.Iterate() })
					if err != nil {
						return err
					}
					res.iterEnd[cell.Iteration()-1][rank] = time.Since(started)
					err = exchange(cell, comm, tr, stepID, res)
					endStep()
					if err != nil {
						return err
					}
				}
				full, err := cell.FullState()
				if err != nil {
					return err
				}
				res.fulls[rank] = full
				return nil
			}()
			if errs[rank] != nil {
				world.Close() // unblock the ranks waiting on this one
			}
		}(rank)
	}
	wg.Wait()
	res.elapsed = time.Since(started)
	endRun()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lockstep rank %d: %w", rank, err)
		}
	}
	return res, nil
}

// exchange allgathers the cell's state and installs the neighbourhood.
func exchange(cell *core.Cell, comm *mpi.Comm, tr *tracer, parent int64, res *lockstepResult) error {
	var state *core.CellState
	var err error
	tr.do("core.State", parent, func() { state, err = cell.State() })
	if err != nil {
		return err
	}
	var body []byte
	tr.do("core.Marshal", parent, func() { body = state.Marshal() })
	if cell.Rank == 0 {
		res.stateBytes = len(body)
	}
	var parts [][]byte
	t0 := time.Now()
	tr.do("mpi.Allgather", parent, func() { parts, err = comm.Allgather(body) })
	res.prof.Add(profile.RoutineGather, time.Since(t0))
	if err != nil {
		return err
	}
	states := make(map[int]*core.CellState, len(parts))
	tr.do("core.UnmarshalCellState", parent, func() {
		for _, p := range parts {
			var s *core.CellState
			if s, err = core.UnmarshalCellState(p); err != nil {
				return
			}
			states[s.Rank] = s
		}
	})
	if err != nil {
		return err
	}
	tr.do("core.SetNeighbors", parent, func() { err = cell.SetNeighbors(states) })
	return err
}

// stragglerMs is the median, over iterations, of the gap between the first
// and the last cell finishing Iterate.
func (r *lockstepResult) stragglerMs() float64 {
	gaps := make([]float64, 0, len(r.iterEnd))
	for _, ends := range r.iterEnd {
		lo, hi := ends[0], ends[0]
		for _, e := range ends[1:] {
			lo, hi = min(lo, e), max(hi, e)
		}
		gaps = append(gaps, ms(hi-lo))
	}
	return median(gaps)
}
