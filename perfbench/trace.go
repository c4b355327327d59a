package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: name, start and
// end relative to the tracer's origin, the span that caused it (0 for a
// root) and the run it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a traced run in memory; they are written out
// once, when the benchmark ends. A nil *tracer records nothing, so the
// untraced runs call the same code with tracing off.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// setRun names the run that later spans belong to.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id and the function
// that closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run, Start: int64(start), End: -1})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans[id-1].End = int64(end)
		t.mu.Unlock()
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int64, fn func()) {
	_, end := t.begin(name, parent)
	fn()
	end()
}

// finished returns the closed spans with their self time filled in: a
// span's duration minus the part of its interval its child spans cover.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range out {
		out[i].Self = int64(out[i].dur()) - covered(out[i], children[out[i].ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// durations returns the durations, in milliseconds, of the finished spans
// called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// writeSpans writes the host facts and then the spans as JSON lines, one
// per span, to path.
func writeSpans(path string, host map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable summarises total and self time per span name, largest self
// time first.
func selfTable(spans []span) string {
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	byName := map[string]*row{}
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			byName[s.Name] = r
		}
		r.n++
		r.total += s.dur()
		r.self += time.Duration(s.Self)
	}
	rows := make([]*row, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	out := fmt.Sprintf("%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		out += fmt.Sprintf("%-28s %8d %12.1f %12.1f\n", r.name, r.n, ms(r.total), ms(r.self))
	}
	return out
}
