package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runner accumulates one run's operations, measured windows and checks.
// Workloads call its methods from many goroutines.
type runner struct {
	workload string
	seed     int64
	budget   time.Duration
	rate     int // open-loop arrivals per second of the paced workloads
	dataDir  string
	out      io.Writer
	tr       *tracer // nil when untraced

	attempted, failed atomic.Int64

	mu       sync.Mutex
	stats    []windowStat // one per closed window
	setups   []sample     // set-up times, s
	problems []string     // failed checks
	win      windowTotals
	counts   map[string]float64 // per-layer counts summed over windows
	heapPeak float64            // bytes
	liveHeap []float64          // KB of live heap per committed operation, one per cluster
	slicers  int                // slicers opened, for alternating traced windows
}

// windowTotals sums what every measured window consumed.
type windowTotals struct {
	wall   time.Duration
	ops    int64 // operations completed inside windows
	cpu    time.Duration
	allocs uint64
	gcCPU  float64 // seconds
}

func newRunner(workload string, seed int64, budget time.Duration, dataDir string, out io.Writer) *runner {
	return &runner{
		workload: workload,
		seed:     seed,
		budget:   budget,
		rate:     pacedRate,
		dataDir:  dataDir,
		out:      out,
		counts:   make(map[string]float64),
	}
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// problem records a failed check; the run then reports correct=false.
func (r *runner) problem(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// addSetup records one set-up that took d, during which the hypervisor
// stole steal of the machine's CPU time.
func (r *runner) addSetup(d time.Duration, steal float64) {
	r.mu.Lock()
	r.setups = append(r.setups, sample{d.Seconds(), steal})
	r.mu.Unlock()
}

// sample is one measured value and the share of CPU time the hypervisor
// stole while it was measured.
type sample struct{ v, steal float64 }

func (r *runner) addCount(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// noteLiveHeap collects garbage and records the live heap per operation
// the cluster still held in memory has committed. A service whose memory
// grows with the requests it has ordered shows here.
func (r *runner) noteLiveHeap(ops int) {
	if ops <= 0 {
		return
	}
	sp := r.tr.begin("go.gc", 0, 0)
	runtime.GC()
	sp.end()
	live := heapBytes()
	kb := live / 1024 / float64(ops)
	r.logf("live heap after a full collection: %.1f MB, %.2f KB per committed operation over %d", live/(1<<20), kb, ops)
	r.mu.Lock()
	r.liveHeap = append(r.liveHeap, kb)
	r.mu.Unlock()
}

// noteHeap keeps the largest heap size sampled during the run.
func (r *runner) noteHeap(bytes float64) {
	r.mu.Lock()
	r.heapPeak = max(r.heapPeak, bytes)
	r.mu.Unlock()
}

// window is one measured interval: the process's CPU, allocation and GC
// counters at its start and at its stop. Operations started between the
// two count toward it; the workload closes it once they have finished.
// Each window yields one value of every end-to-end metric, and a run
// reports the median over its calmer windows (see calm), so interference
// from outside the process moves few windows, not the run.
type window struct {
	r        *runner
	traced   bool // spans were recorded while the window ran
	start    time.Time
	at, end  procCounters
	stopAt   atomic.Int64 // UnixNano of stop; 0 while the load runs
	ops      atomic.Int64
	mu       sync.Mutex
	lat      []float64
	stopOnce sync.Once
}

// openWindow starts a window. In a traced run, traced says whether the
// tracer records spans while it runs; untraced windows interleaved with
// traced ones on the same cluster give the tracing overhead.
func (r *runner) openWindow(traced bool) *window {
	traced = traced && r.tr != nil
	r.tr.enable(traced)
	return &window{r: r, traced: traced, at: readProcCounters(), start: time.Now()}
}

// stop ends the window: throughput, CPU and allocations are measured over
// [start, stop]. The tracer records again outside windows.
func (w *window) stop() {
	w.stopOnce.Do(func() {
		w.end = readProcCounters()
		w.stopAt.Store(time.Now().UnixNano())
		w.r.tr.enable(true)
	})
}

// done records one completed operation that started at started. It
// counts only operations started inside the window.
func (w *window) done(started time.Time, latency time.Duration) {
	if w == nil || started.Before(w.start) {
		return
	}
	if s := w.stopAt.Load(); s != 0 && started.UnixNano() > s {
		return
	}
	w.ops.Add(1)
	w.mu.Lock()
	w.lat = append(w.lat, float64(latency)/float64(time.Millisecond))
	w.mu.Unlock()
}

// windowStat is one closed window's end-to-end values.
type windowStat struct {
	opsPerS, p50, p90, p99, cpuPerKop float64
	steal                             float64 // share of machine CPU time stolen by the hypervisor
	traced                            bool
}

// close stops the window if needed and adds it to the run. Call it once
// the operations started inside the window have finished.
func (w *window) close() {
	w.stop()
	wall := time.Duration(w.stopAt.Load() - w.start.UnixNano())
	ops := w.ops.Load()
	w.mu.Lock()
	lat := w.lat
	w.lat = nil
	w.mu.Unlock()
	cpu, allocs := w.end.cpu-w.at.cpu, w.end.allocs-w.at.allocs
	r := w.r
	r.mu.Lock()
	defer r.mu.Unlock()
	r.win.wall += wall
	r.win.ops += ops
	r.win.cpu += cpu
	r.win.allocs += allocs
	r.win.gcCPU += w.end.gcCPU - w.at.gcCPU
	if ops == 0 {
		return
	}
	r.stats = append(r.stats, windowStat{
		opsPerS:   float64(ops) / wall.Seconds(),
		p50:       quantile(lat, 0.50),
		p90:       quantile(lat, 0.90),
		p99:       quantile(lat, 0.99),
		cpuPerKop: float64(cpu) / float64(time.Millisecond) / float64(ops) * 1000,
		steal:     stolen(w.at.host, w.end.host),
		traced:    w.traced,
	})
}

// slicer cuts a continuous load into back-to-back windows. In a traced
// run its windows alternate between untraced and traced, and successive
// slicers start on opposite sides, so neither kind sits systematically
// later in a cluster's life.
type slicer struct {
	r      *runner
	len    time.Duration
	all    []*window
	cur    atomic.Pointer[window]
	next   time.Time
	parity int
}

// slice is the unit window length of the continuous workloads: long
// enough for thousands of operations at capacity, short enough for a run
// to hold a few dozen windows.
const slice = time.Second

func (r *runner) newSlicer(length time.Duration) *slicer {
	r.mu.Lock()
	parity := r.slicers % 2
	r.slicers++
	r.mu.Unlock()
	s := &slicer{r: r, len: length, parity: parity}
	s.roll()
	return s
}

// roll stops the current window, if any, and opens the next.
func (s *slicer) roll() {
	if w := s.cur.Load(); w != nil {
		w.stop()
	}
	w := s.r.openWindow((len(s.all)+s.parity)%2 == 1)
	s.all = append(s.all, w)
	s.cur.Store(w)
	s.next = w.start.Add(s.len)
}

// window returns the window an operation starting now belongs to.
func (s *slicer) window() *window { return s.cur.Load() }

// tick rolls to a new window once the current one is s.len long. Only
// the goroutine that drives the load calls it.
func (s *slicer) tick(now time.Time) {
	if !now.Before(s.next) {
		s.roll()
	}
}

// stop ends the current window.
func (s *slicer) stop() { s.cur.Load().stop() }

// close closes every window; call it after the load's operations finished.
func (s *slicer) close() {
	for _, w := range s.all {
		w.close()
	}
}

// procCounters are the counters a window differences: the process's own
// and the machine's CPU split.
type procCounters struct {
	cpu    time.Duration // user + system
	allocs uint64        // heap objects allocated
	gcCPU  float64       // GC CPU seconds
	host   hostCPU
}

var runtimeSamples = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds"}

func readProcCounters() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return procCounters{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		host:   readHostCPU(),
	}
}

// heapBytes returns the bytes of live and not-yet-swept heap objects.
func heapBytes() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// logWindows prints the medians of the windows closed since the first
// from, and returns the index the next call starts from.
func (r *runner) logWindows(label string, from int) int {
	r.mu.Lock()
	ws := r.stats[from:]
	next := len(r.stats)
	r.mu.Unlock()
	var ops, p50, p90, p99, cpu, steal []float64
	for _, s := range ws {
		ops, p50, p90, p99 = append(ops, s.opsPerS), append(p50, s.p50), append(p90, s.p90), append(p99, s.p99)
		cpu, steal = append(cpu, s.cpuPerKop), append(steal, s.steal*100)
	}
	r.logf("%s: %d windows, medians %.0f ops/s, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, %.1f CPU ms/kop, %.1f%% stolen",
		label, len(ws), quantile(ops, 0.5), quantile(p50, 0.5), quantile(p90, 0.5), quantile(p99, 0.5), quantile(cpu, 0.5), quantile(steal, 0.5))
	return next
}

// measure runs the workload once and returns the end-to-end result.
func (r *runner) measure(w workload, tr *tracer) (result, error) {
	r.tr = tr
	s0 := readHostCPU()
	if err := w(r); err != nil {
		return result{}, err
	}
	s1 := readHostCPU()
	if total := s1.total - s0.total; total > 0 {
		r.logf("machine during the run: %.1f%% of CPU time stolen by the hypervisor, %.1f%% idle",
			100*(s1.steal-s0.steal)/total, 100*(s1.idle-s0.idle)/total)
	}
	return r.endToEnd()
}

// hostCPU is the machine-wide CPU time split from /proc/stat, in ticks.
type hostCPU struct{ total, idle, steal float64 }

// stolen is the share of the machine's CPU time the hypervisor stole
// between a and b.
func stolen(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// calm keeps the items measured while the hypervisor stole no more CPU
// time than during the run's median item: the calmer half, ties
// included. On a shared machine other tenants' load shows up as steal and
// slows every layer at once; leaving those items out keeps a run's
// figures about the program.
func calm[T any](xs []T, steal func(T) float64) []T {
	ss := make([]float64, len(xs))
	for i, x := range xs {
		ss[i] = steal(x)
	}
	limit := quantile(ss, 0.5)
	var out []T
	for _, x := range xs {
		if steal(x) <= limit {
			out = append(out, x)
		}
	}
	return out
}

func readHostCPU() hostCPU {
	var h hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		h.total += v
		switch i {
		case 3:
			h.idle = v
		case 7:
			h.steal = v
		}
	}
	return h
}

func (r *runner) endToEnd() (result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.win
	if len(r.stats) == 0 || t.wall <= 0 {
		return result{}, fmt.Errorf("no operation completed inside a measured window")
	}
	if len(r.setups) == 0 {
		return result{}, fmt.Errorf("no set-up was timed")
	}
	if len(r.liveHeap) == 0 {
		return result{}, fmt.Errorf("no live heap was measured")
	}
	ws := calm(r.stats, func(s windowStat) float64 { return s.steal })
	med := func(get func(windowStat) float64) float64 {
		xs := make([]float64, len(ws))
		for i, s := range ws {
			xs[i] = get(s)
		}
		return quantile(xs, 0.5)
	}
	var setups []float64
	for _, s := range calm(r.setups, func(s sample) float64 { return s.steal }) {
		setups = append(setups, s.v)
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics: map[string]metric{
			"ops_per_s":      {med(func(s windowStat) float64 { return s.opsPerS }), "1/s"},
			"op_p50_ms":      {med(func(s windowStat) float64 { return s.p50 }), "ms"},
			"op_p90_ms":      {med(func(s windowStat) float64 { return s.p90 }), "ms"},
			"cpu_ms_per_kop": {med(func(s windowStat) float64 { return s.cpuPerKop }), "ms"},
			// The runtime counts allocations per P and publishes them
			// lazily, so a window's count is rough; the run's total is
			// exact, and steal does not change it.
			"allocs_per_op": {float64(t.allocs) / float64(t.ops), "count"},
			"setup_s":       {quantile(setups, 0.5), "s"},
			// A full collection leaves the same live objects whatever
			// else the machine does, so every cluster's value counts.
			"live_heap_kb_per_op": {quantile(append([]float64(nil), r.liveHeap...), 0.5), "KB"},
		},
	}
	fmt.Fprintf(r.out, "# %s: %d ops in %d windows, %.2fs in all, medians over the %d calmer windows; %d set-ups timed, %d calmer kept\n",
		r.workload, t.ops, len(r.stats), t.wall.Seconds(), len(ws), len(r.setups), len(setups))
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
