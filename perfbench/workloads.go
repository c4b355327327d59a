package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/cluster"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/dataset"
	"cellgan/internal/metrics"
	"cellgan/internal/mpi"
	"cellgan/internal/profile"
	"cellgan/internal/telemetry"
	"cellgan/internal/tensor"
)

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 3
	// fixedRate is the offered rate, in requests per second, at which
	// req_ms_p50 and serve.req_ms_p99 are measured: under a third of what
	// the Table I mixture serves within the latency limit on a 2-core
	// host, so no request should be shed.
	fixedRate = 300.0
	// windowRequests is the size of one latency window: p99 of 1000
	// requests has ten beyond it.
	windowRequests = 1000
	// p50Requests is the size of one req_ms_p50 window: short windows, so
	// the median over them passes over the host's slow seconds.
	p50Requests = 500
	// p50Windows is how many req_ms_p50 windows a run serves.
	p50Windows = 5
	// bisections refines serve.max_rps_slo to a bracket of 1.5^(1/8),
	// about 5%.
	bisections = 3
	// fidSamples generated and real images score the best mixture.
	fidSamples = 500
	// ckptBase is the checkpoint path in the in-memory store.
	ckptBase = "ckpt/run"
	// referenceSeed fixes the FID classifier and the real test images, so
	// fid compares across workload seeds.
	referenceSeed = 1
)

// derive gives every input of a run its own stream from the workload seed.
func derive(seed uint64, what string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(what))
	x := seed ^ h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// paperConfig is Table I (64→256→256→784, tanh, Adam, batch 100) on a 2×2
// grid, two batches per iteration and two iterations per job.
func paperConfig(seed uint64) config.Config {
	cfg := config.Default().WithGrid(2, 2)
	cfg.Iterations = 2
	cfg.BatchesPerIteration = 2
	cfg.DatasetSize = 6000
	cfg.Seed = derive(seed, "train")
	return cfg
}

// tinyConfig is config.Scaled (latent 16, hidden 32, batch 16, one batch
// per iteration) on the paper's largest grid, 4×4.
func tinyConfig(seed uint64) config.Config {
	cfg := config.Default().Scaled(10, 16, 2000).WithGrid(4, 4)
	cfg.Seed = derive(seed, "train")
	return cfg
}

// samplesPerJob is the number of real images all cells consume in one job.
func samplesPerJob(cfg config.Config) float64 {
	return float64(cfg.NumCells() * cfg.Iterations * cfg.BatchesPerIteration * cfg.BatchSize)
}

// jobSeeds is how many training seeds the jobs of a run cycle through. A
// job's cost depends on its seed (one seed of the paper config trains a
// fifth slower than another, run after run), so a run's median spans
// several; each seed still runs at least twice, so repeats can be checked.
const jobSeeds = 3

// jobConfig is cfg with the training seed of job i: the workload's own
// seed for the first job, one derived from the workload seed for others.
func jobConfig(cfg config.Config, seed uint64, i int) config.Config {
	if k := i % jobSeeds; k > 0 {
		cfg.Seed = derive(seed, fmt.Sprintf("train/%d", k))
	}
	return cfg
}

// env is what a workload needs before its first timed operation.
type env struct {
	cfg   config.Config
	cls   *metrics.Classifier
	reg   *telemetry.Registry
	prof  *profile.Profiler
	fs    *memFS
	saver *checkpoint.Saver
	// serve-mlp-open only: the mixture trained in set-up and its server.
	art *checkpoint.MixtureArtifact
	srv *server
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.close()
	}
}

// newEnv builds the observation the way cmd/trainer does, the in-memory
// checkpoint store and the FID classifier (fixed seed).
func newEnv(cfg config.Config) (*env, error) {
	e := &env{cfg: cfg, reg: telemetry.NewRegistry(), prof: profile.New(), fs: newMemFS()}
	telemetry.AttachProfiler(e.reg, "trainer", e.prof)
	var err error
	e.saver, err = checkpoint.NewSaver(e.fs, ckptBase, 1, checkpoint.NewMetrics(e.reg))
	if err != nil {
		return nil, err
	}
	opts := metrics.ClassifierOptions{Hidden: 64, TrainSamples: 2000, Epochs: 2, BatchSize: 50, LearningRate: 0.002}
	e.cls, err = metrics.TrainClassifier(dataset.Train(referenceSeed), opts, tensor.NewRNG(referenceSeed))
	return e, err
}

// setUp runs build setupReps times, reports the median as setup_s and
// keeps the last environment.
func setUp(r *run, build func() (*env, error)) (*env, error) {
	var times []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = build(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(times), "s")
	r.logf("set-up %v s (median %.3f), peak RSS %.0f MiB", times, median(times), peakRSSMB())
	// Hand the set-up's garbage back, so the measured phase's memory is
	// its own.
	debug.FreeOSMemory()
	return e, nil
}

// measure runs one measured unit (a job, a latency window) and returns
// the peak resident set size it reached. Every unit starts from a
// collected heap, so the garbage of the one before does not time it.
func measure(r *run, unit func() error) (float64, error) {
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		r.check("resetting the peak RSS", err)
	}
	err := unit()
	return peakRSSMB(), err
}

// save writes states as the next checkpoint generation, as the trainer's
// periodic checkpoint sink does.
func (e *env) save(cfg config.Config, states []*core.FullState) error {
	cp, err := checkpoint.New(cfg, states)
	if err == nil {
		_, err = e.saver.Save(cp)
	}
	return err
}

// paperJob runs one paper-mlp-2x2 training job of cfg through
// core.RunParallel, saving a checkpoint at its last iteration.
func paperJob(e *env, cfg config.Config) (*core.Result, time.Duration, error) {
	opts := core.RunOptions{
		Prof:            e.prof,
		Telemetry:       e.reg,
		CheckpointEvery: cfg.Iterations,
		CheckpointSink:  func(_ int, states []*core.FullState) error { return e.save(cfg, states) },
	}
	t0 := time.Now()
	res, err := core.RunParallel(cfg, opts)
	return res, time.Since(t0), err
}

// checkFulls checks that every cell reached the target iteration with
// finite parameters, and returns the digest of the states.
func checkFulls(r *run, cfg config.Config, fulls []*core.FullState) [32]byte {
	for rank, f := range fulls {
		err := func() error {
			if f == nil {
				return fmt.Errorf("no final state")
			}
			if f.Cell.Iteration != cfg.Iterations {
				return fmt.Errorf("ended at iteration %d, want %d", f.Cell.Iteration, cfg.Iterations)
			}
			if err := allFinite(f.Cell.GenParams); err != nil {
				return fmt.Errorf("generator: %w", err)
			}
			if err := allFinite(f.Cell.DiscParams); err != nil {
				return fmt.Errorf("discriminator: %w", err)
			}
			return nil
		}()
		r.check(fmt.Sprintf("cell %d", rank), err)
	}
	return statesDigest(fulls)
}

// statesDigest hashes the marshalled states in rank order.
func statesDigest(fulls []*core.FullState) [32]byte {
	h := sha256.New()
	for _, f := range fulls {
		if f != nil {
			h.Write(f.Marshal())
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// checkRepeat fails a job whose final states differ from those of the
// first job with its seed: the lockstep modes are deterministic.
func checkRepeat(r *run, first *[32]byte, got [32]byte) {
	if *first == ([32]byte{}) {
		*first = got
		return
	}
	var err error
	if got != *first {
		err = fmt.Errorf("final states differ from the first job's with the same seed")
	}
	r.check("repeat job", err)
}

// quality scores a mixture with the set-up classifier.
func quality(r *run, e *env, mix *core.Mixture) error {
	gen := mix.Sample(fidSamples, e.cfg.InputNeurons, tensor.NewRNG(derive(r.seed, "fid")))
	rep, err := metrics.Evaluate(e.cls, gen, dataset.Test(referenceSeed), fidSamples)
	if err != nil {
		return err
	}
	var ferr error
	if !(rep.Frechet >= 0 && rep.Frechet < 1e300) {
		ferr = fmt.Errorf("Fréchet distance %g is not finite", rep.Frechet)
	}
	r.check("fid", ferr)
	r.set("fid", rep.Frechet, "score")
	r.set("mode_coverage", float64(rep.ModeCoverage), "count")
	r.logf("quality: Fréchet %.4f, modes %d/%d, inception score %.3f", rep.Frechet, rep.ModeCoverage, dataset.NumClasses, rep.InceptionScore)
	return nil
}

// paperPhase runs paper-mlp-2x2 jobs, cycling through the run's training
// seeds: one unmeasured, which grows the heap, then jobs for the run's
// seconds and until every seed has run twice. It checks every job and the
// checkpoint they leave, sets train_samples_per_s and returns the first
// job's result and each measured job's peak RSS.
func paperPhase(r *run, e *env) (*core.Result, []float64, error) {
	var first *core.Result
	var rates, peaks []float64
	var digests [jobSeeds][32]byte
	var last [32]byte
	var deadline time.Time
	for i := 0; i < 2*jobSeeds || time.Now().Before(deadline); i++ {
		cfg := jobConfig(e.cfg, r.seed, i)
		var res *core.Result
		var d time.Duration
		peak, err := measure(r, func() (err error) {
			res, d, err = paperJob(e, cfg)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("training job: %w", err)
		}
		last = checkFulls(r, cfg, res.Full)
		checkRepeat(r, &digests[i%jobSeeds], last)
		if i > 0 {
			peaks = append(peaks, peak)
			rates = append(rates, samplesPerJob(e.cfg)/d.Seconds())
			continue
		}
		first = res
		deadline = time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	}
	r.logf("training: %d jobs after the first, samples/s %.1f, peak RSS MiB %.0f", len(rates), rates, peaks)
	r.set("train_samples_per_s", median(rates), "1/s")
	// The last checkpoint holds the states the last job ended with.
	cp, _, err := checkpoint.LoadLatest(e.fs, ckptBase)
	if err == nil && statesDigest(cp.States) != last {
		err = fmt.Errorf("checkpoint states differ from the last job's final states")
	}
	r.check("checkpoint", err)
	return first, peaks, nil
}

// runPaper is the compute-bound workload: repeated paper-mlp-2x2 jobs for
// the run's seconds, then the best mixture of the first job behind the
// server.
func runPaper(r *run) error {
	e, err := setUp(r, func() (*env, error) { return newEnv(paperConfig(r.seed)) })
	if err != nil {
		return err
	}
	defer e.close()
	if r.tr != nil {
		return traced(r, e, nil)
	}
	res, peaks, err := paperPhase(r, e)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", median(peaks), "MiB")
	mix, err := res.MixtureFor(res.BestRank)
	if err != nil {
		return err
	}
	if err := quality(r, e, mix); err != nil {
		return err
	}
	art, err := checkpoint.ExportMixture(res, res.BestRank)
	if err != nil {
		return err
	}
	_, err = serveMixture(r, art, p50Windows)
	return err
}

// clusterOut is one master/slave job.
type clusterOut struct {
	job                *cluster.JobResult
	elapsed            time.Duration
	dispatch, collect  time.Duration
	heartbeats         uint64
	ctrlMsgs, exchMsgs uint64
}

// clusterJob runs cfg as a master/slave job over an in-process world of
// cfg.NumTasks() ranks: rank 0 runs cluster.RunMaster, the others
// cluster.RunSlave on the LOCAL communicator. With instrument set, every
// rank's communicators count their traffic and the master's log lines are
// timestamped.
func clusterJob(cfg config.Config, reg *telemetry.Registry, instrument bool) (*clusterOut, error) {
	n := cfg.NumTasks()
	world, err := mpi.NewWorld(n)
	if err != nil {
		return nil, err
	}
	defer world.Close()
	m := cluster.NewMetrics(reg)
	hb0 := m.Heartbeats.Value()
	out := &clusterOut{}
	opts := cluster.MasterOptions{Cfg: cfg, Metrics: m}
	ctrl := make([]mpi.CommStats, n)
	exch := make([]mpi.CommStats, n)
	var mu sync.Mutex
	var collectFrom time.Duration
	t0 := time.Now()
	if instrument {
		opts.Logf = func(format string, args ...interface{}) {
			at := time.Since(t0)
			line := fmt.Sprintf(format, args...)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case strings.HasPrefix(line, "master: sent run task"):
				out.dispatch = at
			case strings.HasPrefix(line, "master: all slaves finished"):
				collectFrom = at
			}
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = func() error {
				comm, err := world.Comm(rank)
				if err != nil {
					return err
				}
				local, err := cluster.SplitLocal(comm)
				if err != nil {
					return err
				}
				if instrument {
					comm = mpi.InstrumentComm(comm, &ctrl[rank])
					if local != nil {
						local = mpi.InstrumentComm(local, &exch[rank])
					}
				}
				if rank == 0 {
					out.job, err = cluster.RunMaster(comm, opts)
					out.elapsed = time.Since(t0)
					return err
				}
				return cluster.RunSlave(comm, local)
			}()
			if errs[rank] != nil {
				world.Close() // unblock the ranks waiting on this one
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster rank %d: %w", rank, err)
		}
	}
	out.collect = out.elapsed - collectFrom
	out.heartbeats = m.Heartbeats.Value() - hb0
	for i := range ctrl {
		out.ctrlMsgs += ctrl[i].SentMessages.Load()
		out.exchMsgs += exch[i].SentMessages.Load()
	}
	return out, nil
}

// checkJob checks a cluster job's reports and returns its final states.
func checkJob(r *run, cfg config.Config, job *cluster.JobResult) []*core.FullState {
	for _, rep := range job.Reports {
		var err error
		switch {
		case rep.Error != "":
			err = fmt.Errorf("%s", rep.Error)
		case rep.Aborted:
			err = fmt.Errorf("aborted")
		case rep.Iterations != cfg.Iterations:
			err = fmt.Errorf("reached iteration %d, want %d", rep.Iterations, cfg.Iterations)
		}
		if err != nil {
			r.check(fmt.Sprintf("cluster cell %d", rep.CellRank), err)
		}
	}
	fulls, err := job.FullStates()
	if err != nil {
		r.check("cluster final states", err)
		return nil
	}
	return fulls
}

// jobResult turns a cluster job into a core.Result, the form the mixture
// export and evaluation take.
func jobResult(cfg config.Config, job *cluster.JobResult) (*core.Result, error) {
	res := &core.Result{Cfg: cfg, Cells: make([]core.CellResult, len(job.Reports)), BestRank: job.BestCell}
	for _, rep := range job.Reports {
		st, err := core.UnmarshalCellState(rep.State)
		if err != nil {
			return nil, err
		}
		res.Cells[rep.CellRank] = core.CellResult{
			Rank:           rep.CellRank,
			State:          st,
			MixtureRanks:   rep.MixtureRanks,
			MixtureWeights: rep.MixtureWeights,
			MixtureFitness: rep.MixtureFitness,
		}
	}
	return res, nil
}

// runCluster is the exchange-bound workload: repeated 4×4 master/slave
// jobs of the scaled MLP, cycling through the run's training seeds, for
// the run's seconds, then the best mixture of the first job behind the
// server.
func runCluster(r *run) error {
	e, err := setUp(r, func() (*env, error) { return newEnv(tinyConfig(r.seed)) })
	if err != nil {
		return err
	}
	defer e.close()
	if r.tr != nil {
		return traced(r, e, nil)
	}
	var rates []float64
	var digests [jobSeeds][32]byte
	var art *checkpoint.MixtureArtifact
	var mix *core.Mixture
	var peaks []float64
	var deadline time.Time
	for i := 0; i < 2*jobSeeds || time.Now().Before(deadline); i++ {
		cfg := jobConfig(e.cfg, r.seed, i)
		var out *clusterOut
		peak, err := measure(r, func() (err error) {
			out, err = clusterJob(cfg, e.reg, false)
			return err
		})
		if err != nil {
			return fmt.Errorf("cluster job: %w", err)
		}
		if fulls := checkJob(r, cfg, out.job); fulls != nil {
			checkRepeat(r, &digests[i%jobSeeds], checkFulls(r, cfg, fulls))
		}
		if i > 0 {
			peaks = append(peaks, peak)
			rates = append(rates, samplesPerJob(e.cfg)/out.elapsed.Seconds())
			continue
		}
		// The first job grows the heap from nothing: it is checked but not
		// measured, and the run's seconds start after it.
		deadline = time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
		res, err := jobResult(e.cfg, out.job)
		if err != nil {
			return err
		}
		if art, err = checkpoint.ExportMixture(res, res.BestRank); err != nil {
			return err
		}
		if mix, err = res.MixtureFor(res.BestRank); err != nil {
			return err
		}
	}
	r.logf("training: %d jobs after the first, samples/s %.1f, peak RSS MiB %.0f", len(rates), rates, peaks)
	r.set("train_samples_per_s", median(rates), "1/s")
	r.set("peak_rss_mb", median(peaks), "MiB")
	if err := quality(r, e, mix); err != nil {
		return err
	}
	_, err = serveMixture(r, art, p50Windows)
	return err
}

// runServe is the serving workload: a Table I mixture, trained in set-up
// by one paper-mlp-2x2 job, behind serve.Server under open-loop load.
func runServe(r *run) error {
	e, err := setUp(r, func() (*env, error) {
		e, err := newEnv(paperConfig(r.seed))
		if err != nil {
			return nil, err
		}
		res, _, err := paperJob(e, e.cfg)
		if err != nil {
			return nil, err
		}
		if e.art, err = checkpoint.ExportMixture(res, res.BestRank); err != nil {
			return nil, err
		}
		e.srv, err = newServer(e.art, derive(r.seed, "engine"))
		return e, err
	})
	if err != nil {
		return err
	}
	defer e.close()
	if r.tr != nil {
		return traced(r, e, e.srv)
	}
	// The served mixture comes from set-up; train_samples_per_s from
	// the same jobs as on paper-mlp-2x2, timed with the server loaded.
	if _, _, err := paperPhase(r, e); err != nil {
		return err
	}
	mix, err := e.art.Mixture()
	if err != nil {
		return err
	}
	if err := quality(r, e, mix); err != nil {
		return err
	}
	// A window's peak RSS moves with where in it the collector ran; the
	// serving phase's peak is the largest over its windows.
	peaks, err := servePhase(r, e.srv, p50Windows)
	r.set("peak_rss_mb", slices.Max(peaks), "MiB")
	return err
}

// serveMixture serves a training workload's mixture for a short phase.
func serveMixture(r *run, art *checkpoint.MixtureArtifact, windows int) ([]float64, error) {
	srv, err := newServer(art, derive(r.seed, "engine"))
	if err != nil {
		return nil, err
	}
	defer srv.close()
	return servePhase(r, srv, windows)
}

// servePhase measures latency at fixedRate over an odd number of windows
// of p50Requests each, and returns each window's peak RSS. req_ms_p50
// is the median over the windows, so a stall of the host in a minority of
// the windows does not move it.
func servePhase(r *run, srv *server, windows int) ([]float64, error) {
	// Hand what training left back, so the windows' peak RSS is serving's.
	debug.FreeOSMemory()
	rng := tensor.NewRNG(derive(r.seed, "requests"))
	var p50s, peaks []float64
	for i := 0; i < windows; i++ {
		var w rungResult
		peak, _ := measure(r, func() error {
			w = runRung(srv.h, fixedRate, schedule(rng, fixedRate, p50Requests), nil)
			return nil
		})
		peaks = append(peaks, peak)
		// At the fixed rate a shed or timed-out request is a failure.
		r.checks("requests at the fixed rate", w.attempted, w.failed+w.overloaded, w.firstErr)
		p50s = append(p50s, w.p(0.5))
		r.logf("fixed rate %.0f/s window %d: p50 %.2f ms, p99 %.2f ms, lag max %.1f ms, backlog %d, peak RSS %.0f MiB",
			fixedRate, i, w.p(0.5), w.p(0.99), ms(w.lagMax), w.backlog, peak)
	}
	r.set("req_ms_p50", median(p50s), "ms")
	return peaks, nil
}

// sameStates fails unless two sets of final states are byte-identical.
func sameStates(a, b []*core.FullState) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d states against %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Marshal(), b[i].Marshal()) {
			return fmt.Errorf("cell %d final state differs", i)
		}
	}
	return nil
}
