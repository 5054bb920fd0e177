package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/stats"
	"github.com/sof-repro/sof/internal/types"
)

// The paper-sim workload replays the paper's evaluation on the
// virtual-time simulator with 2006-era crypto cost models: the Figures 4/5
// latency/throughput points (CT, SC and BFT at every batching interval,
// SC and BFT under each study suite) and the Figure 6 fail-overs (SC and
// SCR at 1-5 KB BackLogs). The point recipes are the ones
// harness.RunLatencyThroughputPoint and harness.RunFailOverPoint use; they
// are rebuilt here so the benchmark can read each run's DES step count.
const (
	simF         = 2
	simWindow    = 2 * time.Second // virtual measurement window of a Figure 4/5 point
	simBatch     = 1024
	simReqBytes  = 128                    // harness.LoadFor's request size
	simMaxPerBat = simBatch / simReqBytes // payload-only capacity, entries per batch
)

// simPoint names one simulator run.
type simPoint struct {
	proto     types.Protocol
	suite     crypto.SuiteName
	interval  time.Duration // Figures 4/5
	window    time.Duration // virtual measurement window; 0 means simWindow
	backlogKB int           // Figure 6; 0 for a Figure 4/5 point
}

func (p simPoint) String() string {
	if p.backlogKB > 0 {
		return fmt.Sprintf("fig6 %v/%v backlog=%dKB", p.proto, p.suite, p.backlogKB)
	}
	return fmt.Sprintf("fig4/5 %v/%v interval=%v", p.proto, p.suite, p.interval)
}

// simOut is a point's virtual outputs: equal seeds must give equal values.
type simOut struct {
	latency    stats.Summary
	throughput float64 // committed requests per virtual second at one process
	batches    int     // batches committed, warm-up included
	committed  int     // entries committed at the probe process, warm-up included
	failOver   time.Duration
	steps      uint64  // DES events executed
	fill       float64 // SC primary's mean batch fill ratio
}

// paperPoints lists one sweep, in the order it runs.
func paperPoints() []simPoint {
	var pts []simPoint
	for _, iv := range harness.PaperIntervals {
		pts = append(pts, simPoint{proto: types.CT, suite: crypto.NoneSuite, interval: iv})
		for _, s := range crypto.StudySuites() {
			pts = append(pts,
				simPoint{proto: types.SC, suite: s, interval: iv},
				simPoint{proto: types.BFT, suite: s, interval: iv})
		}
	}
	for _, proto := range []types.Protocol{types.SC, types.SCR} {
		for _, s := range crypto.StudySuites() {
			for _, kb := range harness.PaperBacklogKBs {
				pts = append(pts, simPoint{proto: proto, suite: s, backlogKB: kb})
			}
		}
	}
	return pts
}

func modelSuite(proto types.Protocol, s crypto.SuiteName) crypto.SuiteName {
	if proto == types.CT {
		return crypto.NoneSuite
	}
	return crypto.ModelPrefix + s
}

// heapPoint is the Figure 4/5 point whose cluster's live heap is measured
// once per window: SC at the shortest interval commits the most requests,
// and a longer window lets them, not the benchmark's own heap, dominate.
var heapPoint = simPoint{proto: types.SC, suite: crypto.StudySuites()[0], interval: harness.PaperIntervals[0], window: 10 * simWindow}

// runPoint runs one point. setup is the wall time from building the
// cluster to its first commit (Figure 4/5 points only; 0 otherwise). If
// inspect is not nil it is called with the entries committed at the probe
// process while the Figure 4/5 cluster is still in memory.
func runPoint(p simPoint, seed int64, inspect func(committed int)) (out simOut, setup time.Duration, err error) {
	if p.backlogKB > 0 {
		out, err = runFailOver(p, seed)
		return out, 0, err
	}
	t0 := time.Now()
	c, err := harness.New(harness.Options{
		Protocol:         p.proto,
		F:                simF,
		Suite:            modelSuite(p.proto, p.suite),
		BatchInterval:    p.interval,
		MaxBatchBytes:    simBatch,
		Delta:            time.Hour, // fail-free run: timing checks must never fire
		Mirror:           p.proto == types.SC || p.proto == types.SCR,
		DumbOptimization: p.proto == types.SC,
		Net:              netsim.LANDefaults(),
		Seed:             seed,
		Load:             harness.LoadFor(p.interval, simBatch),
	})
	if err != nil {
		return out, 0, err
	}
	c.Start()
	probe, err := c.Topo.ReplicaID(c.Topo.NumReplicas())
	if err != nil {
		return out, 0, err
	}
	warm := max(10*p.interval, 500*time.Millisecond)
	// Advance by whole intervals until the first commit, then finish the
	// warm-up: the same virtual schedule as one RunFor(warm).
	var ran time.Duration
	for ran < warm && c.Events.CommittedEntries(probe) == 0 {
		c.RunFor(p.interval)
		ran += p.interval
	}
	setup = time.Since(t0)
	c.RunFor(warm - ran)
	warmEntries := c.Events.CommittedEntries(probe)
	window := simWindow
	if p.window > 0 {
		window = p.window
	}
	c.Events.StartWindow(c.Now())
	c.RunFor(window)
	var fill float64
	if p.proto == types.SC {
		primary, _, _, err := c.Topo.Candidate(1)
		if err != nil {
			return out, setup, err
		}
		if st, ok := c.OrderStateOf(primary); ok {
			fill = st.MeanFillRatio
		}
	}
	out = simOut{
		fill:       fill,
		latency:    c.Events.LatencySummary(),
		throughput: stats.Rate(c.Events.CommittedEntries(probe), window),
		batches:    c.Events.BatchCount(),
		committed:  warmEntries + c.Events.CommittedEntries(probe),
		steps:      c.Scheduler().Steps(),
	}
	if out.latency.Count == 0 {
		return out, setup, errors.New("no committed batches")
	}
	if inspect != nil {
		inspect(out.committed)
		runtime.KeepAlive(c)
	}
	return out, setup, nil
}

// runFailOver injects the Figure 6 value-domain fault at the acting
// coordinator after ordering a few requests.
func runFailOver(p simPoint, seed int64) (simOut, error) {
	c, err := harness.New(harness.Options{
		Protocol:         p.proto,
		F:                simF,
		Suite:            modelSuite(p.proto, p.suite),
		BatchInterval:    100 * time.Millisecond,
		MaxBatchBytes:    simBatch,
		Delta:            time.Hour,
		Mirror:           true,
		DumbOptimization: p.proto == types.SC,
		PadBacklogBytes:  p.backlogKB * 1024,
		Net:              netsim.LANDefaults(),
		Seed:             seed,
	})
	if err != nil {
		return simOut{}, err
	}
	c.Start()
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(0, make([]byte, 100)); err != nil {
			return simOut{}, err
		}
		c.RunFor(30 * time.Millisecond)
	}
	c.RunFor(time.Second)
	if err := c.InjectCoordinatorValueFault(); err != nil {
		return simOut{}, err
	}
	c.RunFor(5 * time.Second)
	d, ok := c.Events.FailOverLatency()
	if !ok {
		return simOut{}, errors.New("fail-over did not complete")
	}
	probe, err := c.Topo.ReplicaID(c.Topo.NumReplicas())
	if err != nil {
		return simOut{}, err
	}
	return simOut{
		failOver:  d,
		batches:   c.Events.BatchCount(),
		committed: c.Events.CommittedEntries(probe),
		steps:     c.Scheduler().Steps(),
	}, nil
}

// checkCapacity verifies a Figure 4/5 point against the payload-only
// bound: at most batch/request-size entries per batch per interval.
func checkCapacity(p simPoint, out simOut) error {
	if p.backlogKB > 0 {
		return nil
	}
	bound := float64(simMaxPerBat) / p.interval.Seconds()
	if out.throughput > bound {
		return fmt.Errorf("%v: %.1f req/s exceeds the payload-only bound %.1f req/s", p, out.throughput, bound)
	}
	return nil
}

// sweepPoints lists the points runPaperSim sweeps.
var sweepPoints = paperPoints

// runPaperSim runs windows of whole sweeps, each window at least a slice
// long, until the budget is spent (at least one window). Every point is
// one operation; its latency is the point's wall time. A point that fails
// to run, or a Figure 6 fail-over that does not complete, fails the run.
// After each window one point, a different one each time, runs twice more
// with the same seed, and the two runs must give identical virtual
// outputs; then heapPoint runs once more to measure its live heap.
func runPaperSim(r *runner) error {
	pts := sweepPoints()
	deadline := time.Now().Add(r.budget)
	var sweeps, windows []float64
	var steps uint64
	var stepWall time.Duration
	var committed, batches int
	for win := 0; win == 0 || time.Now().Add(estimate(windows)).Before(deadline); win++ {
		t0 := time.Now()
		w := r.openWindow(win%2 == 1)
		for time.Since(t0) < slice {
			s0 := time.Now()
			for _, p := range pts {
				r.attempted.Add(1)
				sp := r.tr.begin("sim.point", 0, 0)
				start := time.Now()
				out, setup, err := runPoint(p, r.seed, nil)
				took := time.Since(start)
				sp.end()
				if err != nil {
					r.failed.Add(1)
					r.problem("%v: %v", p, err)
					continue
				}
				w.done(start, took)
				if setup > 0 {
					// Too short for /proc/stat's 10 ms ticks to resolve steal.
					r.addSetup(setup, 0)
				}
				steps += out.steps
				stepWall += took
				committed += out.committed
				batches += out.batches
				if out.fill > 0 {
					r.addCount("core.fill_sum", out.fill)
					r.addCount("core.fill_samples", 1)
				}
				r.noteHeap(heapBytes())
				if err := checkCapacity(p, out); err != nil {
					r.problem("%v", err)
				}
			}
			sweeps = append(sweeps, time.Since(s0).Seconds())
		}
		w.close()

		p := pts[(win*7)%len(pts)]
		r.attempted.Add(2)
		a, _, errA := runPoint(p, r.seed, nil)
		b, _, errB := runPoint(p, r.seed, nil)
		switch {
		case errA != nil || errB != nil:
			r.failed.Add(2)
			r.problem("determinism re-run of %v: %v / %v", p, errA, errB)
		case a != b:
			r.problem("%v is not deterministic: %+v then %+v with seed %d", p, a, b, r.seed)
		}
		r.attempted.Add(1)
		if _, _, err := runPoint(heapPoint, r.seed, r.noteLiveHeap); err != nil {
			r.failed.Add(1)
			r.problem("live heap %v: %v", heapPoint, err)
		}
		windows = append(windows, time.Since(t0).Seconds())
	}
	r.addCount("des.steps", float64(steps))
	r.addCount("des.step_wall_s", stepWall.Seconds())
	r.addCount("sim.committed", float64(committed))
	r.addCount("sim.batches", float64(batches))
	r.logf("sweep of %d points: median %.3f s over %d sweeps", len(pts), quantile(sweeps, 0.5), len(sweeps))
	return nil
}

// estimate is the median of past durations, in seconds, as a Duration.
func estimate(past []float64) time.Duration {
	if len(past) == 0 {
		return 0
	}
	return time.Duration(quantile(append([]float64(nil), past...), 0.5) * float64(time.Second))
}
