package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one client request share Trace; Parent names the span that
// caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the tracer's memory; spans beyond it are counted, not
// kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one branch per call site; a disabled one
// records nothing either, at the price of one atomic load.
type tracer struct {
	t0      time.Time
	on      atomic.Bool
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// enable turns recording on or off; spans begun while off are not kept.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// newTrace returns an identifier shared by the spans of one request.
func (t *tracer) newTrace() uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

// active is an open span; end records it.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span named name under parent within trace.
func (t *tracer) begin(name string, parent, trace uint64) active {
	if t == nil || !t.on.Load() {
		return active{}
	}
	now := time.Now()
	return active{t: t, start: now, s: span{
		Name: name, ID: t.ids.Add(1), Parent: parent, Trace: trace,
		Start: int64(now.Sub(t.t0)),
	}}
}

// id is the span's identifier, for use as a child's parent.
func (a active) id() uint64 { return a.s.ID }

func (a active) end() {
	if a.t == nil {
		return
	}
	a.s.End = a.s.Start + int64(time.Since(a.start))
	a.t.mu.Lock()
	if len(a.t.spans) < maxSpans {
		a.t.spans = append(a.t.spans, a.s)
	} else {
		a.t.dropped++
	}
	a.t.mu.Unlock()
}

// selfTimes returns, per span name, every span's self time in
// nanoseconds: its duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	childCover := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			childCover[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - childCover[s.ID]
		if self < 0 {
			self = 0 // overlapping concurrent children
		}
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced measures the workload once with the tracer attached. Its
// measured windows alternate between untraced and traced on the same
// clusters (see slicer); the traced windows and everything outside the
// windows supply the spans, and the difference between the two kinds'
// median CPU per operation is the tracing overhead.
func runTraced(r *runner, w workload, dir string) (result, error) {
	tr := newTracer()
	res, err := r.measure(w, tr)
	if err != nil {
		return result{}, err
	}
	layers, err := perLayer(r, tr)
	if err != nil {
		return result{}, err
	}
	for k, v := range traceOverhead(r) {
		layers[k] = v
	}

	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	r.logf("%d spans written to %s (%d over the in-memory cap not kept)", len(tr.spans), path, tr.dropped)
	printLayerTable(r, layers)
	res.Metrics = layers
	return res, nil
}

// traceOverhead compares the calmer traced and untraced windows' CPU per
// operation. The untraced windows' own quartile spread is reported next
// to it: an overhead inside that spread is not told apart from noise.
func traceOverhead(r *runner) map[string]metric {
	r.mu.Lock()
	all := append([]windowStat(nil), r.stats...)
	r.mu.Unlock()
	split := func(ws []windowStat) (plain, traced []float64) {
		for _, s := range ws {
			if s.traced {
				traced = append(traced, s.cpuPerKop)
			} else {
				plain = append(plain, s.cpuPerKop)
			}
		}
		return plain, traced
	}
	plain, traced := split(calm(all, func(s windowStat) float64 { return s.steal }))
	if len(plain) == 0 || len(traced) == 0 {
		plain, traced = split(all) // too few windows to leave any out
	}
	if len(plain) == 0 || len(traced) == 0 {
		r.logf("tracing overhead: not measured, the run closed %d untraced and %d traced windows", len(plain), len(traced))
		return map[string]metric{"trace.overhead_cpu_pct": {0, "%"}, "trace.untraced_cpu_iqr_pct": {0, "%"}}
	}
	cpu0, cpu1 := quantile(plain, 0.5), quantile(traced, 0.5)
	spread := (quantile(plain, 0.75) - quantile(plain, 0.25)) / cpu0 * 100
	overhead := (cpu1/cpu0 - 1) * 100
	r.logf("tracing overhead: %.2f CPU ms/kop over %d traced windows vs %.2f over %d untraced (%+.1f%%); untraced quartile spread %.1f%% of its median",
		cpu1, len(traced), cpu0, len(plain), overhead, spread)
	return map[string]metric{
		"trace.overhead_cpu_pct":     {overhead, "%"},
		"trace.untraced_cpu_iqr_pct": {spread, "%"},
	}
}
