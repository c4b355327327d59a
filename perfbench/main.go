// Command perfbench is the repository's benchmark. It runs one named
// workload in a single process, checks the program's outputs and prints
// every end-to-end metric (or, with -trace 1, every per-layer metric) as
// the last line of standard output. From the root of the repository:
//
//	bash perfbench/run.sh --workload paper-mlp-2x2 --seed 1 --seconds 16 --trace 0
//
// Workloads:
//
//	paper-mlp-2x2         Table I MLP on a 2×2 grid through core.RunParallel,
//	                      checkpointing into an in-memory checkpoint.FS
//	tiny-mlp-4x4-cluster  scaled MLP on a 4×4 grid as a master/slave job
//	                      (cluster.RunMaster/RunSlave, 17 in-process ranks)
//	serve-mlp-open        open-loop Poisson requests into serve.Server
//
// Every input derives from -seed. The untraced run attaches a
// telemetry.Registry and a profile.Profiler as cmd/trainer does, so the
// cost of that observation is inside what is measured. The traced run
// records spans around the benchmark's own calls into each module, keeps
// them in memory and writes them once, at exit, as JSON lines under
// .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects a run's metrics and the outcome of its output checks.
type run struct {
	seed    uint64
	seconds float64
	tr      *tracer

	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check counts one checked operation, failing it when err is non-nil.
func (r *run) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 10 {
			r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// checks counts attempted operations of which failed went wrong.
func (r *run) checks(what string, attempted, failed int, firstErr error) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 && len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d of %d failed, first: %v", what, failed, attempted, firstErr))
	}
}

func (r *run) logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"paper-mlp-2x2":        runPaper,
	"tiny-mlp-4x4-cluster": runCluster,
	"serve-mlp-open":       runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := flag.Float64("seconds", 12, "how long the workload's main phase measures")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, names)
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: *seconds, metrics: map[string]metric{}}
	if *trace == 1 {
		r.tr = newTracer()
	}
	host := hostFacts()
	hostLine, _ := json.Marshal(host)
	r.logf("host %s", hostLine)
	r.logf("workload %s seed %d seconds %g trace %d", *workload, *seed, *seconds, *trace)

	started := time.Now()
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.tr != nil {
		// The traced run prints the per-layer metrics only.
		delete(r.metrics, "setup_s")
		spans := r.tr.finished()
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(path, host, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		r.logf("%d spans written to %s; total and self time per span:", len(spans), path)
		fmt.Print(selfTable(spans))
	}
	r.logf("done in %s: %d of %d checked operations failed (fail_ratio %g)",
		time.Since(started).Round(time.Millisecond), r.failed, r.attempted,
		float64(r.failed)/float64(max(r.attempted, 1)))
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
