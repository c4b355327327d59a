package main

import (
	"fmt"
	"runtime"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/dataset"
	"cellgan/internal/nn"
	"cellgan/internal/profile"
	"cellgan/internal/tensor"
)

// probeReps is how many times a layer probe repeats; metrics are medians.
const probeReps = 20

// traced is the traced run of every workload. It measures each layer on
// the workload's training config (the Table I config for serve-mlp-open,
// whose mixture it trains) and prints the per-layer metrics:
//
//   - core and mpi: the benchmark's lockstep runner, untraced, traced and
//     untraced again (the last two give trace.overhead_pct on the training
//     workloads), with Table IV from the untraced run's profiler;
//   - cluster: the same config and length as a master/slave job, whose
//     final states must equal the runner's byte for byte;
//   - core.speedup_vs_seq: the paper-mlp-2x2 config through
//     core.RunSequential against core.RunParallel;
//   - nn, tensor, dataset: probes on Table I networks at batch 100;
//   - checkpoint: checkpoint.New plus Saver.Save of the runner's states;
//   - serve: latency windows at the fixed rate, one untraced and one
//     traced, and the rate search for serve.max_rps_slo.
//
// srv is the workload's server, nil for the training workloads, which
// serve the runner's mixture instead.
func traced(r *run, e *env, srv *server) error {
	cfg := e.cfg
	cells := float64(cfg.NumCells())
	iters := float64(cfg.Iterations)

	// core and mpi through the lockstep runner: untraced, traced, untraced
	// again. The first run in a process also pays for growing the heap, so
	// the overhead compares the traced run with the second untraced one.
	plain, err := runLockstep(cfg, nil)
	if err != nil {
		return err
	}
	r.tr.setRun("lockstep")
	d, err := runLockstep(cfg, r.tr)
	if err != nil {
		return err
	}
	again, err := runLockstep(cfg, nil)
	if err != nil {
		return err
	}
	checkFulls(r, cfg, plain.fulls)
	r.check("traced runner repeats the untraced one", sameStates(plain.fulls, d.fulls))
	r.check("untraced runner repeats itself", sameStates(plain.fulls, again.fulls))
	spans := r.tr.finished()
	for name, routine := range map[string]string{
		"core.train_ms":          profile.RoutineTrain,
		"core.update_genomes_ms": profile.RoutineUpdateGenomes,
		"core.mutate_ms":         profile.RoutineMutate,
		"core.gather_ms":         profile.RoutineGather,
	} {
		r.set(name, ms(again.prof.Get(routine).Total)/(cells*iters), "ms")
	}
	for name, span := range map[string]string{
		"core.iterate_ms":       "core.Iterate",
		"core.state_ms":         "core.State",
		"core.marshal_ms":       "core.Marshal",
		"core.unmarshal_ms":     "core.UnmarshalCellState",
		"core.set_neighbors_ms": "core.SetNeighbors",
		"mpi.allgather_ms":      "mpi.Allgather",
	} {
		r.set(name, median(durations(spans, span)), "ms")
	}
	r.set("core.straggler_ms", d.stragglerMs(), "ms")
	r.set("core.state_bytes", float64(d.stateBytes), "bytes")
	var msgs, sent uint64
	for _, st := range d.comm {
		msgs += st.SentMessages.Load()
		sent += st.SentBytes.Load()
	}
	exchanges := iters + 1 // one before the first iteration
	r.set("mpi.msgs_per_iter", float64(msgs)/exchanges, "count")
	r.set("mpi.bytes_per_iter", float64(sent)/exchanges, "bytes")
	if srv == nil {
		r.set("trace.overhead_pct", 100*(d.elapsed.Seconds()/again.elapsed.Seconds()-1), "%")
	}
	r.logf("lockstep runner: untraced %s, traced %s, untraced %s", plain.elapsed.Round(time.Millisecond),
		d.elapsed.Round(time.Millisecond), again.elapsed.Round(time.Millisecond))

	// cluster: the same training as a master/slave job.
	r.tr.setRun("cluster")
	var job *clusterOut
	r.tr.do("cluster.job", 0, func() { job, err = clusterJob(cfg, e.reg, true) })
	if err != nil {
		return err
	}
	if fulls := checkJob(r, cfg, job.job); fulls != nil {
		r.check("cluster job equals the lockstep runner", sameStates(plain.fulls, fulls))
	}
	r.set("cluster.dispatch_s", job.dispatch.Seconds(), "s")
	r.set("cluster.collect_s", job.collect.Seconds(), "s")
	r.set("cluster.heartbeats", float64(job.heartbeats), "count")
	r.set("mpi.control_msgs_per_iter", float64(job.ctrlMsgs)/iters, "count")
	var traffic error
	if job.exchMsgs != msgs {
		traffic = fmt.Errorf("%d messages, the lockstep runner sent %d", job.exchMsgs, msgs)
	}
	r.check("cluster exchange traffic", traffic)

	// The paper's single-core baseline against the parallel mode.
	r.tr.setRun("speedup")
	if err := speedup(r); err != nil {
		return err
	}

	r.tr.setRun("probes")
	nnProbe(r, paperConfig(r.seed))
	tensorProbe(r)
	datasetProbe(r, cfg)
	r.set("tensor.flops_per_cell_iter", flopsPerCellIter(cfg), "computed_flop")
	if err := checkpointProbe(r, e, plain.fulls); err != nil {
		return err
	}

	// serve.
	if srv == nil {
		art, err := lockstepMixture(cfg, plain.fulls)
		if err != nil {
			return err
		}
		if srv, err = newServer(art, derive(r.seed, "engine")); err != nil {
			return err
		}
		defer srv.close()
	}
	return serveProbe(r, srv, e.srv != nil)
}

// speedup times the paper-mlp-2x2 config, one iteration, through
// core.RunSequential and core.RunParallel; their states must agree.
func speedup(r *run) error {
	cfg := paperConfig(r.seed)
	cfg.Iterations = 1
	var seq, par *core.Result
	var err error
	t0 := time.Now()
	r.tr.do("core.RunSequential", 0, func() { seq, err = core.RunSequential(cfg, core.RunOptions{}) })
	if err != nil {
		return err
	}
	tSeq := time.Since(t0)
	t0 = time.Now()
	r.tr.do("core.RunParallel", 0, func() { par, err = core.RunParallel(cfg, core.RunOptions{}) })
	if err != nil {
		return err
	}
	tPar := time.Since(t0)
	r.check("sequential equals parallel", sameStates(seq.Full, par.Full))
	r.set("core.speedup_vs_seq", tSeq.Seconds()/tPar.Seconds(), "x")
	return nil
}

// nnProbe times one adversarial training step of Table I networks at
// batch 100, pass by pass.
func nnProbe(r *run, cfg config.Config) {
	rng := tensor.NewRNG(derive(r.seed, "nn"))
	gen, disc := core.BuildGenerator(cfg, rng), core.BuildDiscriminator(cfg, rng)
	gws, dws := nn.NewWorkspace(), nn.NewWorkspace()
	gopt, dopt := nn.NewAdam(cfg.InitialLearningRate), nn.NewAdam(cfg.InitialLearningRate)
	z := tensor.New(cfg.BatchSize, cfg.InputNeurons)
	ones := tensor.Full(cfg.BatchSize, 1, 1)
	grad := tensor.New(cfg.BatchSize, 1)
	for i := 0; i < probeReps; i++ {
		tensor.GaussianFill(z, 0, 1, rng)
		gen.ZeroGrads()
		disc.ZeroGrads()
		var fake, logits, dFake *tensor.Mat
		r.tr.do("nn.gen_fwd", 0, func() { fake = gen.ForwardWS(gws, z) })
		r.tr.do("nn.disc_fwd", 0, func() { logits = disc.ForwardWS(dws, fake) })
		_, g := nn.BCEWithLogitsLossInto(grad, logits, ones)
		r.tr.do("nn.disc_bwd", 0, func() { dFake = disc.BackwardWS(dws, g) })
		r.tr.do("nn.gen_bwd", 0, func() { gen.BackwardWS(gws, dFake) })
		r.tr.do("nn.adam_step", 0, func() { gopt.Step(gen); dopt.Step(disc) })
	}
	spans := r.tr.finished()
	for _, name := range []string{"gen_fwd", "gen_bwd", "disc_fwd", "disc_bwd", "adam_step"} {
		r.set("nn."+name+"_ms", median(durations(spans, "nn."+name)), "ms")
	}
}

// tensorProbe times MatMulInto at the generator's output layer shape,
// 100×256 · 256×784.
func tensorProbe(r *run) {
	const m, k, n = 100, 256, 784
	rng := tensor.NewRNG(derive(r.seed, "tensor"))
	a, b, dst := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	tensor.GaussianFill(a, 0, 1, rng)
	tensor.GaussianFill(b, 0, 1, rng)
	for i := 0; i < probeReps; i++ {
		r.tr.do("tensor.MatMulInto", 0, func() { tensor.MatMulInto(dst, a, b) })
	}
	sec := median(durations(r.tr.finished(), "tensor.MatMulInto")) / 1000
	r.set("tensor.matmul_gflops", 2*m*k*n/sec/1e9, "GFLOP/s")
}

// datasetProbe times Loader.Next at batch 100 on the workload's data.
func datasetProbe(r *run, cfg config.Config) {
	src := dataset.Train(cfg.Seed).WithSize(cfg.DatasetSize)
	loader := dataset.NewLoader(src, 100, tensor.NewRNG(derive(r.seed, "loader")))
	for i := 0; i < probeReps; i++ {
		r.tr.do("dataset.Loader.Next", 0, func() { loader.Next() })
	}
	r.set("dataset.batch_ms", median(durations(r.tr.finished(), "dataset.Loader.Next")), "ms")
}

// flopsPerCellIter is computed from cfg, not measured: the matrix-multiply
// flops of one cell iteration's training passes and fitness evaluations
// (2·in·out per sample and linear layer forward, twice that backward).
func flopsPerCellIter(cfg config.Config) float64 {
	per := func(sizes []int) float64 {
		f := 0.0
		for i := 1; i < len(sizes); i++ {
			f += 2 * float64(sizes[i-1]*sizes[i])
		}
		return f
	}
	g, d := per(cfg.GeneratorSizes()), per(cfg.DiscriminatorSizes())
	const eval = 32 // fitness-evaluation batch
	b := float64(cfg.BatchSize)
	// Per batch: generator step (G and D forward, D and G backward) and
	// discriminator step (G forward, D forward and backward on real and
	// fake), plus the two tournaments.
	step := b*(2*g+2*g+3*d+3*2*d) + eval*(3*g+6*d)
	// Per iteration: genome and mixture updates over a Moore-5 neighbourhood.
	const nbrs = 5
	update := eval * (nbrs*(g+d) + g + 2*nbrs*d + 2*(g+d))
	return float64(cfg.BatchesPerIteration)*step + update
}

// checkpointProbe times checkpoint.New plus Saver.Save of states into the
// in-memory store.
func checkpointProbe(r *run, e *env, states []*core.FullState) error {
	for i := 0; i < 3; i++ {
		var err error
		r.tr.do("checkpoint.save", 0, func() { err = e.save(e.cfg, states) })
		if err != nil {
			return err
		}
	}
	r.set("checkpoint.save_ms", median(durations(r.tr.finished(), "checkpoint.save")), "ms")
	r.set("checkpoint.bytes", float64(e.fs.bytesStored()), "bytes")
	return nil
}

// lockstepMixture exports cell 0's mixture from the runner's final states.
func lockstepMixture(cfg config.Config, fulls []*core.FullState) (*checkpoint.MixtureArtifact, error) {
	f := fulls[0]
	a := &checkpoint.MixtureArtifact{
		Cfg:     cfg,
		Ranks:   append([]int(nil), f.MixtureRanks...),
		Weights: append([]float64(nil), f.MixtureWeights...),
	}
	for _, rank := range f.MixtureRanks {
		if rank < 0 || rank >= len(fulls) {
			return nil, fmt.Errorf("mixture member %d out of range", rank)
		}
		a.GenParams = append(a.GenParams, fulls[rank].Cell.GenParams)
	}
	return a, nil
}

// serveProbe measures the serve layer at the fixed rate: two untraced
// windows give serve.req_ms_p99, a traced one between them the handler
// spans and the scraped serve metrics, and a rate search
// serve.max_rps_slo. On serve-mlp-open (withOverhead) the traced and
// untraced mean latencies give trace.overhead_pct.
func serveProbe(r *run, srv *server, withOverhead bool) error {
	rng := tensor.NewRNG(derive(r.seed, "requests"))
	window := func(tr *tracer) rungResult {
		runtime.GC()
		w := runRung(srv.h, fixedRate, schedule(rng, fixedRate, windowRequests), tr)
		r.checks("requests at the fixed rate", w.attempted, w.failed+w.overloaded, w.firstErr)
		return w
	}
	// Untraced, traced, untraced again: the traced window is compared with
	// both neighbours, so a drift of the host over the three cancels.
	plain := window(nil)
	before := srv.scrape()
	r.tr.setRun("serve")
	w := window(r.tr)
	after := srv.scrape()
	again := window(nil)
	both := rungResult{latMs: append(append([]float64(nil), plain.latMs...), again.latMs...)}
	r.set("serve.req_ms_p99", both.p(0.99), "ms")
	delta := func(name string) float64 { return after[name] - before[name] }
	r.set("serve.handler_ms_p50", median(durations(r.tr.finished(), "serve.ServeHTTP")), "ms")
	r.set("serve.gen_lag_ms_max", ms(w.lagMax), "ms")
	r.set("serve.shed", delta("serve_requests_shed_total"), "count")
	batches := delta("serve_batch_requests_count")
	perBatch := delta("serve_batch_requests_sum") / max(batches, 1)
	r.set("serve.batch_requests_mean", perBatch, "count")
	// The mean coalesced batch, in samples: requests per batch times the
	// mean request size, (1+16)/2.
	n := max(1, int(perBatch*(1+maxSamplesPerRequest)/2+0.5))
	fwd := srv.forwardMs(n, probeReps, tensor.NewRNG(derive(r.seed, "forward")))
	r.set("serve.forward_ms", fwd, "ms")
	r.logf("serve: untraced windows p50 %.2f ms, p99 %.2f ms; traced p50 %.2f ms, p99 %.2f ms; %.2f requests per batch, forward of %d samples %.3f ms",
		both.p(0.5), both.p(0.99), w.p(0.5), w.p(0.99), perBatch, n, fwd)
	if withOverhead {
		r.set("trace.overhead_pct", 100*(mean(w.latMs)/mean(both.latMs)-1), "%")
	}

	rungs, best := searchRate(srv.h, fixedRate, plain.meets(), windowRequests, bisections, rng)
	for _, w := range rungs {
		// Probing past capacity sheds by design; only wrong answers fail.
		r.checks("requests on the rate ladder", w.attempted, w.failed, w.firstErr)
		r.logf("ladder %.0f/s: p50 %.2f ms, p99 %.2f ms, shed or timed out %d, backlog %d, meets %v",
			w.rate, w.p(0.5), w.p(0.99), w.overloaded, w.backlog, w.meets())
	}
	r.set("serve.max_rps_slo", best, "1/s")
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
