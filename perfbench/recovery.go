package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	sof "github.com/sof-repro/sof"
	"github.com/sof-repro/sof/internal/types"
)

const (
	killDown       = 1500 * time.Millisecond // how long the killed replica stays down
	recoverTimeout = 20 * time.Second
	faultSettle    = time.Second // quiet period proving one fault caused one fail-over
)

// runRecovery runs the kv-durable-paced cluster and rate through fault
// rounds on fresh clusters: kill a plain replica (KillNode drops its
// unsynced WAL data), restart it and time its catch-up; then inject a
// coordinator value fault at candidate ranks 1 and 2 — f fail-overs, all
// a cluster of f=2 tolerates — and time the longest stretch without a
// client-observed commit after each. Rounds repeat while the budget lasts.
func runRecovery(r *runner) error {
	deadline := time.Now().Add(r.budget)
	var roundTook time.Duration
	var catchups, gaps []float64
	var missed float64
	for round := 0; round == 0 || time.Now().Add(roundTook).Before(deadline); round++ {
		t0 := time.Now()
		k, err := startKV(r, true, fmt.Sprintf("round-%d", round))
		if err != nil {
			return err
		}
		k.record.Store(true)
		stop := make(chan struct{})
		type genResult struct {
			sl     *slicer
			issued int
		}
		gen := make(chan genResult, 1)
		go func() {
			// One window per round, so the faults' effect on latency is not
			// a window the median leaves out.
			sl, _, issued := k.paced(time.Hour, time.Hour, stop, round)
			gen <- genResult{sl, issued}
		}()
		time.Sleep(warmup)

		if c, m, err := k.killCycle(); err != nil {
			r.problem("round %d kill/restart: %v", round, err)
		} else {
			catchups = append(catchups, c)
			missed += m
		}
		for rank := types.Rank(1); rank <= kvF; rank++ {
			if g, err := k.faultCycle(rank); err != nil {
				r.problem("round %d value fault at rank %d: %v", round, rank, err)
			} else {
				r.logf("round %d value fault at rank %d: longest commit gap %.1f ms", round, rank, g)
				gaps = append(gaps, g)
			}
		}
		close(stop)
		g := <-gen
		g.sl.close()
		r.noteLiveHeap(k.ackedCount())
		k.finish(sampleKeys(r.seed, round, g.issued, checkKeys))
		roundTook = time.Since(t0)
	}
	var total float64
	for _, c := range catchups {
		total += c
	}
	r.logf("catch-up after restart: median %.3f s over %d restarts, %.0f missed sequence numbers at %.0f per second",
		quantile(catchups, 0.5), len(catchups), missed, missed/total)
	r.logf("fail-over gap: median %.1f ms, max %.1f ms over %d faults", quantile(gaps, 0.5), quantile(gaps, 1), len(gaps))
	return nil
}

// watermark reads a node's sof_commit_watermark.
func (k *kvRig) watermark(node sof.NodeID) float64 {
	v, _ := gaugeValue(k.scrape(node), "sof_commit_watermark")
	return v
}

// killCycle kills the highest plain replica, keeps it down while the
// load continues, restarts it, and returns the seconds from restart until
// its watermark reaches the cluster's watermark at the restart, and how
// many sequence numbers it had to catch up on.
func (k *kvRig) killCycle() (took, missed float64, err error) {
	r, h := k.r, k.c.Harness()
	victim, err := h.Topo.ReplicaID(h.Topo.NumReplicas())
	if err != nil {
		return 0, 0, err
	}
	before := k.watermark(victim)
	sp := r.tr.begin("harness.kill_node", 0, 0)
	err = h.KillNode(victim)
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	time.Sleep(killDown)
	var target float64
	for _, node := range k.c.Processes() {
		if node != victim {
			target = max(target, k.watermark(node))
		}
	}
	sp = r.tr.begin("harness.restart_node", 0, 0)
	err = h.RestartNode(victim)
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for k.watermark(victim) < target {
		if time.Since(t0) > recoverTimeout {
			return 0, 0, fmt.Errorf("restarted %v stuck at watermark %.0f, cluster was at %.0f", victim, k.watermark(victim), target)
		}
		time.Sleep(5 * time.Millisecond)
	}
	took, missed = time.Since(t0).Seconds(), target-before
	r.addCount("catchup.cycles", 1)
	r.addCount("catchup.s", took)
	r.addCount("catchup.missed", missed)
	return took, missed, nil
}

// catchupUnderLoad runs killCycle while written-once SETs of the given
// round keep arriving at r.rate. The SETs belong to no window, so the
// cycle moves only the catch-up counts.
func (k *kvRig) catchupUnderLoad(round int) error {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		defer wg.Wait()
		interval := time.Second / time.Duration(k.r.rate)
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				key, value := pacedKV(k.r.seed, round, i)
				_ = k.set(nil, key, value, due) // counted in r.failed
			}()
		}
	}()
	_, _, err := k.killCycle()
	close(stop)
	<-done
	return err
}

// faultCycle injects a value fault at the primary of the acting
// candidate, which must be rank, and checks that exactly one fail-over
// follows, as counted by sof_failovers_total on a plain replica. It
// returns the longest interval (ms) without a client-observed commit from
// the injection until the fail-over has settled.
func (k *kvRig) faultCycle(rank types.Rank) (float64, error) {
	r, h := k.r, k.c.Harness()
	fams := k.scrape(k.probe)
	acting, _ := gaugeValue(fams, "sof_coordinator_rank")
	view, _ := gaugeValue(fams, "sof_view")
	if types.Rank(acting) != rank {
		return 0, fmt.Errorf("acting candidate is rank %.0f, want %d", acting, rank)
	}
	fo0 := familySum(fams, "sof_failovers_total")
	failovers := func() float64 { return familySum(k.scrape(k.probe), "sof_failovers_total") }

	t0 := time.Now()
	sp := r.tr.begin("harness.inject_value_fault", 0, 0)
	err := h.InjectValueFaultAt(rank, types.View(view))
	sp.end()
	if err != nil {
		return 0, err
	}
	for failovers() < fo0+1 {
		if time.Since(t0) > recoverTimeout {
			return 0, fmt.Errorf("no fail-over within %v", recoverTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(faultSettle)
	if n := failovers() - fo0; n != 1 {
		return 0, fmt.Errorf("%.0f fail-overs followed one fault, want exactly 1", n)
	}
	return k.longestGap(t0, time.Now()), nil
}

// longestGap returns the longest interval (ms) within [from, to] that
// holds no client-observed commit.
func (k *kvRig) longestGap(from, to time.Time) float64 {
	k.mu.Lock()
	var at []time.Time
	for _, t := range k.commitAt {
		if !t.Before(from) && !t.After(to) {
			at = append(at, t)
		}
	}
	k.mu.Unlock()
	sort.Slice(at, func(i, j int) bool { return at[i].Before(at[j]) })
	prev, longest := from, time.Duration(0)
	for _, t := range append(at, to) {
		longest = max(longest, t.Sub(prev))
		prev = t
	}
	return float64(longest) / float64(time.Millisecond)
}
