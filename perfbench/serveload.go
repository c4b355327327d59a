package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cellgan/internal/checkpoint"
	"cellgan/internal/core"
	"cellgan/internal/dataset"
	"cellgan/internal/serve"
	"cellgan/internal/tensor"
)

// Open-loop serving: requests arrive as a Poisson stream at a fixed rate,
// each due at a time set by the schedule, whether or not earlier requests
// have finished. Latency is timed from a request's due time, so a stall
// also charges the requests queued behind it.

const (
	// latencyLimitMs is the p99 latency limit of serve.max_rps_slo.
	latencyLimitMs = 100.0
	// maxSamplesPerRequest bounds the seeded request size n (1..16).
	maxSamplesPerRequest = 16
)

// errOverloaded marks a request the server shed or timed out.
var errOverloaded = errors.New("overloaded")

// request is one scheduled generate call.
type request struct {
	due  time.Duration
	n    int
	body []byte
}

// schedule draws count requests at rate per second: exponential gaps and
// n uniform in 1..16, all from rng.
func schedule(rng *tensor.RNG, rate float64, count int) []request {
	out := make([]request, count)
	var at float64
	for i := range out {
		at += -math.Log(1-rng.Float64()) / rate
		n := 1 + rng.Intn(maxSamplesPerRequest)
		out[i] = request{
			due:  time.Duration(at * float64(time.Second)),
			n:    n,
			body: []byte(fmt.Sprintf(`{"n":%d,"encoding":"base64"}`, n)),
		}
	}
	return out
}

// rungResult is the outcome of one rate of the ladder.
type rungResult struct {
	rate      float64
	attempted int
	// failed counts wrong responses; overloaded counts requests shed
	// (429) or timed out (504), which miss the limit without being wrong.
	failed     int
	overloaded int
	firstErr   error
	latMs      []float64 // per completed request, from its due time
	lagMax     time.Duration
	backlog    int // requests in flight when the last one was sent
}

func (r rungResult) p(q float64) float64 { return quantile(r.latMs, q) }

// meets reports whether the rung kept p99 under the limit with no failed
// request and no growing backlog. By Little's law a queue that is not
// growing holds at most rate × limit requests.
func (r rungResult) meets() bool {
	return r.failed == 0 && r.overloaded == 0 && r.p(0.99) <= latencyLimitMs &&
		float64(r.backlog) <= r.rate*latencyLimitMs/1000+1
}

// runRung plays sched against h and then checks every response. The
// checks run after the last response, so their decoding does not compete
// with the requests for the processors.
func runRung(h http.Handler, rate float64, sched []request, tr *tracer) rungResult {
	res := rungResult{rate: rate, attempted: len(sched)}
	lat := make([]float64, len(sched))
	recs := make([]*httptest.ResponseRecorder, len(sched))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, rq := range sched {
		if d := rq.due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(t0) - rq.due; lag > res.lagMax {
			res.lagMax = lag
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, rq request) {
			defer wg.Done()
			defer inflight.Add(-1)
			req := httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(rq.body))
			w := httptest.NewRecorder()
			tr.do("serve.ServeHTTP", 0, func() { h.ServeHTTP(w, req) })
			lat[i] = ms(time.Since(t0) - rq.due)
			recs[i] = w
		}(i, rq)
	}
	res.backlog = int(inflight.Load())
	wg.Wait()
	for i, w := range recs {
		err := checkResponse(w, sched[i].n)
		recs[i] = nil
		switch {
		case errors.Is(err, errOverloaded):
			res.overloaded++
		case err != nil:
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		default:
			res.latMs = append(res.latMs, lat[i])
		}
	}
	return res
}

// checkResponse verifies a generate response: status 200 and n×784
// finite samples in [-1, 1].
func checkResponse(w *httptest.ResponseRecorder, n int) error {
	if w.Code == http.StatusTooManyRequests || w.Code == http.StatusGatewayTimeout {
		return errOverloaded
	}
	if w.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
	}
	// The fields of serve.GenerateResponse that are checked; a []byte
	// field takes the base64 samples decoded.
	var resp struct {
		N, Dim   int
		Encoding string
		Data     []byte
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if resp.N != n || resp.Dim != dataset.Pixels || resp.Encoding != "base64" {
		return fmt.Errorf("response is %d×%d %s, want %d×%d base64", resp.N, resp.Dim, resp.Encoding, n, dataset.Pixels)
	}
	if len(resp.Data) != 8*n*dataset.Pixels {
		return fmt.Errorf("response carries %d bytes, want %d", len(resp.Data), 8*n*dataset.Pixels)
	}
	for i := 0; i < len(resp.Data); i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(resp.Data[i:]))
		if !(v >= -1 && v <= 1) {
			return fmt.Errorf("sample value %g outside [-1, 1]", v)
		}
	}
	return nil
}

// server is one mixture behind serve.Server, in process and with no
// sockets.
type server struct {
	reg *serve.Registry
	h   *serve.Server
	mix *core.Mixture
	lat int
}

func newServer(a *checkpoint.MixtureArtifact, seed uint64) (*server, error) {
	reg := serve.NewRegistry(serve.EngineConfig{Seed: seed}, nil)
	if err := reg.Load("digits", a); err != nil {
		reg.Close()
		return nil, err
	}
	mix, err := a.Mixture()
	if err != nil {
		reg.Close()
		return nil, err
	}
	return &server{reg: reg, h: serve.NewServer(reg, 0), mix: mix, lat: a.LatentDim()}, nil
}

func (s *server) close() { s.reg.Close() }

// scrape reads counter and histogram sums from the serve metrics
// exposition, keyed by series name.
func (s *server) scrape() map[string]float64 {
	var buf bytes.Buffer
	s.reg.Metrics().WriteText(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// forwardMs times Mixture.SampleWith on a batch of n samples, the
// engine's forward pass without queueing or encoding.
func (s *server) forwardMs(n, reps int, rng *tensor.RNG) float64 {
	ws := core.NewSampleWorkspace()
	mix := s.mix.Clone()
	mix.SampleWith(ws, n, s.lat, rng) // size the workspace
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		mix.SampleWith(ws, n, s.lat, rng)
		times[i] = ms(time.Since(t0))
	}
	return median(times)
}

// searchRate finds the highest rate meeting the limit: it steps up (or
// down) from start by a factor of 1.5 until it brackets the limit between
// a passing and a failing rate, then bisects the bracket in log space
// steps times. Each rate plays count requests. A rate that misses the
// limit only in its tail (no request shed, median under half the limit)
// is played once more and fails only if it misses again, so one stall of
// the host does not end the search. It returns every rung played
// and the geometric middle of the final bracket.
func searchRate(h http.Handler, start float64, startMeets bool, count, steps int, rng *tensor.RNG) ([]rungResult, float64) {
	var rungs []rungResult
	play := func(rate float64) bool {
		for try := 0; ; try++ {
			runtime.GC()
			r := runRung(h, rate, schedule(rng, rate, count), nil)
			rungs = append(rungs, r)
			if r.meets() || try == 1 || r.overloaded > 0 || r.p(0.5) > latencyLimitMs/2 {
				return r.meets()
			}
		}
	}
	// maxMoves bounds the bracketing walk: 1.5^8 covers any capacity this
	// host can serve from a sane start, and stepping down stops well above
	// the rates where count requests would take minutes.
	const step, maxMoves = 1.5, 8
	lo, hi := start, start
	if startMeets {
		for moves := 0; moves < maxMoves; moves++ {
			if hi *= step; !play(hi) {
				break
			}
			lo = hi
		}
	} else {
		for moves := 0; moves < 3; moves++ {
			if lo /= step; play(lo) {
				break
			}
			hi = lo
		}
	}
	for i := 0; i < steps; i++ {
		mid := math.Sqrt(lo * hi)
		if play(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rungs, math.Sqrt(lo * hi)
}
