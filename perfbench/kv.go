package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sof "github.com/sof-repro/sof"
)

// The kv workloads' cluster: SC with f=2 (7 order processes) on loopback
// TCP, HMAC-SHA256, 1 KB batches, a 10 ms batching interval, the pipelined
// proposer with a window of 8, digest-only acks and the KV state machine.
const (
	kvF           = 2
	kvInterval    = 10 * time.Millisecond
	kvWindow      = 8
	valueBytes    = 100 // a SET payload is about 110 bytes with its key
	opTimeout     = 10 * time.Second
	resultTimeout = 5 * time.Second
	// readBackTimeout bounds a round's read-back, so a wedged cluster
	// fails the run instead of stalling it.
	readBackTimeout = 30 * time.Second
	pollEvery       = 100 * time.Millisecond
	// commitRetain comfortably covers the commit events of several poll
	// periods at capacity (7 events per batch, ~1.5k batches/s).
	commitRetain = 1 << 15
	warmup       = 500 * time.Millisecond
	checkKeys    = 256 // written-once keys read back per paced round
)

func kvConfig(r *runner, durable bool, name string) sof.Config {
	cfg := sof.Config{
		Protocol:           sof.SC,
		F:                  kvF,
		Suite:              sof.HMACSHA256,
		BatchInterval:      kvInterval,
		BatchBytes:         1024,
		MaxInflightBatches: kvWindow,
		DigestOnlyAcks:     true,
		Transport:          sof.TCP,
		StateMachine:       sof.NewKVStore,
		CommitRetention:    commitRetain,
		Seed:               r.seed,
	}
	if durable {
		cfg.AuthFrames = true
		cfg.SessionResume = true
		cfg.Durable = true
		cfg.DataDir = filepath.Join(r.dataDir, name)
	}
	return cfg
}

// kvRig is one running kv cluster with the benchmark's checkers attached.
type kvRig struct {
	r     *runner
	c     *sof.Cluster
	model *kvModel
	probe sof.NodeID // plain replica whose registry gives per-batch counts

	order  *orderChecker // owned by the poller until it stops
	cursor uint64
	stop   chan struct{}
	done   chan struct{}

	mu       sync.Mutex
	acked    []sof.ReqID
	commitAt []time.Time // client-observed commit times, when recording
	fills    []float64   // sampled batch fill ratios (traced runs)
	record   atomic.Bool
}

// startKV builds and starts a cluster and times its set-up: from
// NewCluster to the first acknowledged commit.
func startKV(r *runner, durable bool, name string) (*kvRig, error) {
	h0 := readHostCPU()
	t0 := time.Now()
	sp := r.tr.begin("sof.new_cluster", 0, 0)
	c, err := sof.NewCluster(kvConfig(r, durable, name))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("new cluster: %w", err)
	}
	c.Start()
	topo := c.Harness().Topo
	probe, err := topo.ReplicaID(topo.NumReplicas() - 1)
	if err != nil {
		c.Stop()
		return nil, err
	}
	k := &kvRig{
		r: r, c: c, model: newKVModel(), probe: probe, order: newOrderChecker(),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	if err := k.set(nil, "setup", "ready", t0); err != nil {
		c.Stop()
		return nil, fmt.Errorf("first commit: %w", err)
	}
	r.addSetup(time.Since(t0), stolen(h0, readHostCPU()))
	go k.poll()
	return k, nil
}

// set writes key=value and waits for the commit. due is when the
// operation was due to start; its latency is measured from there.
func (k *kvRig) set(w *window, key, value string, due time.Time) error {
	r := k.r
	r.attempted.Add(1)
	trace := r.tr.newTrace()
	op := r.tr.begin("op.set", 0, trace)
	sp := r.tr.begin("sof.submit", op.id(), trace)
	id, err := k.c.Submit(sof.EncodeKV(sof.KVSet, key, value))
	sp.end()
	if err == nil {
		sp = r.tr.begin("sof.await_commit", op.id(), trace)
		err = k.c.AwaitCommit(id, opTimeout)
		sp.end()
	}
	op.end()
	if err != nil {
		r.failed.Add(1)
		k.model.lost(key)
		return err
	}
	now := time.Now()
	w.done(due, now.Sub(due))
	k.model.acked(key, value)
	k.mu.Lock()
	k.acked = append(k.acked, id)
	if k.record.Load() {
		k.commitAt = append(k.commitAt, now)
	}
	k.mu.Unlock()
	return nil
}

// poll consumes the commit stream into the order checker until stopped,
// so retention never has to hold a whole run.
func (k *kvRig) poll() {
	defer close(k.done)
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		select {
		case <-k.stop:
			return
		case <-t.C:
			k.drainOrder()
			k.r.noteHeap(heapBytes())
			if k.r.tr != nil {
				k.sampleFill()
			}
		}
	}
}

func (k *kvRig) drainOrder() {
	sp := k.r.tr.begin("harness.commits_since", 0, 0)
	events, next, dropped := k.c.Harness().RecorderOf(0).CommitsSince(k.cursor)
	sp.end()
	k.cursor = next
	k.order.consume(events, dropped)
}

// sampleFill reads the acting primary's last-closed-batch fill ratio.
func (k *kvRig) sampleFill() {
	primary, _, _, err := k.c.Harness().Topo.Candidate(1)
	if err != nil {
		return
	}
	fams := k.scrape(primary)
	if v, ok := gaugeValue(fams, "sof_batch_fill_ratio"); ok && v > 0 {
		k.mu.Lock()
		k.fills = append(k.fills, v)
		k.mu.Unlock()
	}
}

func (k *kvRig) scrape(node sof.NodeID) []sof.MetricFamily {
	sp := k.r.tr.begin("obs.scrape", 0, 0)
	defer sp.end()
	return k.c.Metrics(node)
}

// layerSnap is the per-layer counters a measured window differences.
type layerSnap struct {
	frames, walAppends, walSyncs, entries, batches, retries float64
	io                                                      procIO
}

func (k *kvRig) snapshot() layerSnap {
	var s layerSnap
	for _, node := range k.c.Processes() {
		fams := k.scrape(node)
		s.frames += familySum(fams, "sof_peer_queued_total")
		s.walAppends += familySum(fams, "sof_wal_appends_total")
		s.walSyncs += familySum(fams, "sof_wal_syncs_total")
		s.retries += familySum(fams, "sof_replica_retries_total")
		if node == k.probe {
			s.entries = familySum(fams, "sof_committed_entries_total")
			s.batches = familySum(fams, "sof_committed_batches_total")
		}
	}
	s.io = readProcIO()
	return s
}

// addLayerDeltas adds the counters' growth between two snapshots to the
// run's per-layer counts.
func (k *kvRig) addLayerDeltas(a, b layerSnap) {
	r := k.r
	r.addCount("tcpnet.frames", b.frames-a.frames)
	r.addCount("wal.appends", b.walAppends-a.walAppends)
	r.addCount("wal.syncs", b.walSyncs-a.walSyncs)
	r.addCount("core.entries", b.entries-a.entries)
	r.addCount("core.batches", b.batches-a.batches)
	r.addCount("replica.retries", b.retries-a.retries)
	r.addCount("io.syscr", b.io.syscr-a.io.syscr)
	r.addCount("io.syscw", b.io.syscw-a.io.syscw)
	r.addCount("io.wchar", b.io.wchar-a.io.wchar)
}

// ackedCount is how many requests the cluster has acknowledged.
func (k *kvRig) ackedCount() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.acked)
}

// finish reads back keys, checks the order and the replicas' values
// against the model, and stops the cluster.
func (k *kvRig) finish(keys []string) {
	k.verifyKeys(keys)
	close(k.stop)
	<-k.done
	k.drainOrder()
	k.mu.Lock()
	acked := k.acked
	fills := k.fills
	k.mu.Unlock()
	for _, p := range k.order.verify(acked) {
		k.r.problem("total order: %s", p)
	}
	k.r.logf("order: %d acknowledged requests; %s", len(acked), k.order.summary())
	k.r.addCount("order.reordered", float64(len(k.order.reordered)))
	for _, f := range fills {
		k.r.addCount("core.fill_sum", f)
		k.r.addCount("core.fill_samples", 1)
	}
	sp := k.r.tr.begin("sof.stop", 0, 0)
	k.c.Stop()
	sp.end()
}

// verifyKeys reads every key whose value the model predicts through the
// ordering service and checks each read's per-replica results.
func (k *kvRig) verifyKeys(keys []string) {
	var want []string
	for _, key := range keys {
		if k.model.known(key) {
			want = append(want, key)
		}
	}
	jobs := make(chan string)
	var wg sync.WaitGroup
	var skipped atomic.Int64
	deadline := time.Now().Add(readBackTimeout)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range jobs {
				if time.Now().After(deadline) {
					skipped.Add(1)
					continue
				}
				k.readBack(key)
			}
		}()
	}
	for _, key := range want {
		jobs <- key
	}
	close(jobs)
	wg.Wait()
	if n := skipped.Load(); n > 0 {
		k.r.problem("read-back of %d keys not started within %v", n, readBackTimeout)
	}
}

func (k *kvRig) readBack(key string) {
	r := k.r
	r.attempted.Add(1)
	trace := r.tr.newTrace()
	sp := r.tr.begin("sof.submit", 0, trace)
	id, err := k.c.Submit(sof.EncodeKV(sof.KVGet, key, ""))
	sp.end()
	if err == nil {
		sp = r.tr.begin("sof.await_commit", 0, trace)
		err = k.c.AwaitCommit(id, opTimeout)
		sp.end()
	}
	if err != nil {
		// Without the read the replicas' value of key goes unchecked.
		r.failed.Add(1)
		r.problem("read-back of %q: %v", key, err)
		return
	}
	want := []byte(k.model.value(key))
	deadline := time.Now().Add(resultTimeout)
	for {
		sp = r.tr.begin("sof.results", 0, trace)
		res := k.c.Results(id)
		sp.end()
		err := verifyResults(want, res, kvF)
		if err == nil {
			return
		}
		if !errors.Is(err, errTooFew) || time.Now().After(deadline) {
			r.problem("read of %q: %v", key, err)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// randomValue returns n hex characters drawn from rng.
func randomValue(rng *rand.Rand, n int) string {
	b := make([]byte, (n+1)/2)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return hex.EncodeToString(b)[:n]
}

// setupTrials is how many extra clusters a kv run builds only to time
// their set-up, so setup_s is a median over more than its rounds.
const setupTrials = 8

// timeSetups builds, first-commits and stops setupTrials clusters.
func timeSetups(r *runner, durable bool) error {
	for i := 0; i < setupTrials; i++ {
		k, err := startKV(r, durable, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return err
		}
		close(k.stop)
		<-k.done
		k.c.Stop()
	}
	return nil
}

// runKVSaturate drives a closed loop: callers each own a few keys and
// issue their next SET only when the previous one committed, so the load
// adapts to the service's capacity. The run is split into rounds, each on
// a fresh cluster: capacity differs by up to a quarter between two fresh
// clusters on the same machine, so a run averages over six of them.
func runKVSaturate(r *runner) error {
	const callers, keysPerCaller, rounds = 32, 8, 6
	if err := timeSetups(r, false); err != nil {
		return err
	}
	per := r.budget / rounds
	logged := 0
	for round := 0; round < rounds; round++ {
		k, err := startKV(r, false, fmt.Sprintf("round-%d", round))
		if err != nil {
			return err
		}
		var sl atomic.Pointer[slicer]
		win := func() *window {
			if s := sl.Load(); s != nil {
				return s.window()
			}
			return nil // warming up
		}
		var stopped atomic.Bool
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(r.seed), uint64(round)<<16|uint64(c)))
				for i := 0; !stopped.Load(); i++ {
					key := fmt.Sprintf("c%02d-k%d", c, i%keysPerCaller)
					_ = k.set(win(), key, randomValue(rng, valueBytes), time.Now()) // counted in r.failed
				}
			}(c)
		}
		time.Sleep(warmup)
		s0 := k.snapshot()
		s := r.newSlicer(slice)
		sl.Store(s)
		// Leave time in the round for set-up and the read-back.
		for end := time.Now().Add(max(per-warmup-time.Second, slice)); time.Now().Before(end); {
			time.Sleep(min(time.Until(s.next), time.Until(end)))
			s.tick(time.Now())
		}
		s.stop()
		s1 := k.snapshot()
		stopped.Store(true)
		wg.Wait()
		s.close()
		logged = r.logWindows(fmt.Sprintf("round %d", round), logged)
		r.noteLiveHeap(k.ackedCount())
		k.addLayerDeltas(s0, s1)
		keys := []string{"setup"}
		for c := 0; c < callers; c++ {
			for j := 0; j < keysPerCaller; j++ {
				keys = append(keys, fmt.Sprintf("c%02d-k%d", c, j))
			}
		}
		k.finish(keys)
	}
	return nil
}

// pacedRate is the default open-loop arrival rate of the durable
// workloads: a third of the durable cluster's capacity on two CPUs, where
// batches still close on size but latency does not yet queue behind
// other tenants' bursts on a shared machine.
const pacedRate = 1000

// paced drives an open loop at r.rate for warm-up plus d, or until stop
// is closed: operation i is due at start + i/rate whatever the service
// does, and its latency is measured from when it was due. After the
// warm-up it cuts the load into windows of length win. It returns the
// stopped slicer, the generator's lateness (ms) after the warm-up, and
// how many operations it issued.
func (k *kvRig) paced(d, win time.Duration, stop <-chan struct{}, round int) (sl *slicer, late []float64, issued int) {
	interval := time.Second / time.Duration(k.r.rate)
	warmN := int(warmup / interval)
	total := warmN + int(d/interval)
	var wg sync.WaitGroup
	var s0 layerSnap
	start := time.Now()
loop:
	for issued = 0; issued < total; issued++ {
		select {
		case <-stop:
			break loop
		default:
		}
		due := start.Add(time.Duration(issued) * interval)
		if s := time.Until(due); s > 0 {
			time.Sleep(s)
		}
		var cur *window
		if issued == warmN {
			s0 = k.snapshot()
			sl = k.r.newSlicer(win)
		}
		if sl != nil {
			sl.tick(time.Now())
			cur = sl.window()
			late = append(late, float64(time.Since(due))/float64(time.Millisecond))
		}
		wg.Add(1)
		go func(i int, due time.Time, cur *window) {
			defer wg.Done()
			key, value := pacedKV(k.r.seed, round, i)
			_ = k.set(cur, key, value, due) // counted in r.failed
		}(issued, due, cur)
	}
	if sl == nil {
		s0 = k.snapshot()
		sl = k.r.newSlicer(win)
	}
	sl.stop()
	k.addLayerDeltas(s0, k.snapshot())
	wg.Wait()
	return sl, late, issued
}

// pacedKV is the written-once key and its value for paced operation i.
func pacedKV(seed int64, round, i int) (string, string) {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(round)<<32|uint64(i)))
	return fmt.Sprintf("r%d-%07d", round, i), randomValue(rng, valueBytes)
}

// sampleKeys picks n of the paced round's keys, seeded.
func sampleKeys(seed int64, round, total, n int) []string {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(round)))
	keys := []string{"setup"}
	for _, i := range rng.Perm(total)[:min(n, total)] {
		key, _ := pacedKV(seed, round, i)
		keys = append(keys, key)
	}
	return keys
}

// runKVDurablePaced drives the durable cluster open-loop at r.rate, in
// rounds on fresh clusters.
func runKVDurablePaced(r *runner) error {
	const rounds = 3
	if err := timeSetups(r, true); err != nil {
		return err
	}
	per := r.budget / rounds
	var late []float64
	logged := 0
	for round := 0; round < rounds; round++ {
		k, err := startKV(r, true, fmt.Sprintf("round-%d", round))
		if err != nil {
			return err
		}
		d := max(per-warmup-time.Second, 2*slice)
		// Two-second windows: a p90 with 200 samples beyond it.
		sl, l, issued := k.paced(d, 2*slice, nil, round)
		late = append(late, l...)
		sl.close()
		logged = r.logWindows(fmt.Sprintf("round %d", round), logged)
		r.noteLiveHeap(k.ackedCount())
		if r.tr != nil && round == rounds-1 {
			// Traced runs also measure one catch-up, after the windows.
			if err := k.catchupUnderLoad(rounds + round); err != nil {
				r.problem("kill/restart: %v", err)
			}
		}
		k.finish(sampleKeys(r.seed, round, issued, checkKeys))
	}
	r.logf("generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d operations",
		quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1), len(late))
	return nil
}

// procIO is the process's I/O accounting from /proc/self/io.
type procIO struct{ syscr, syscw, wchar float64 }

func readProcIO() procIO {
	var io procIO
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return io // not on Linux: the tcpnet syscall counts read zero
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(strings.TrimSpace(val), 64)
		switch name {
		case "syscr":
			io.syscr = v
		case "syscw":
			io.syscw = v
		case "wchar":
			io.wchar = v
		}
	}
	return io
}

// familySum sums every sample of a counter or gauge family.
func familySum(fams []sof.MetricFamily, name string) float64 {
	var sum float64
	for _, f := range fams {
		if f.Name == name {
			for _, s := range f.Samples {
				sum += s.Value
			}
		}
	}
	return sum
}

// gaugeValue returns the first sample of a family.
func gaugeValue(fams []sof.MetricFamily, name string) (float64, bool) {
	for _, f := range fams {
		if f.Name == name && len(f.Samples) > 0 {
			return f.Samples[0].Value, true
		}
	}
	return 0, false
}
