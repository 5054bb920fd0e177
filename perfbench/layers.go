package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sort"
	"time"

	sof "github.com/sof-repro/sof"
	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/replica"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal"
)

// The per-layer replays call each layer's public functions from the
// benchmark at the sizes the traced run measured, so every per-call cost
// is a time for the same inputs the cluster handled.

// replayInput is what the traced run measured and the replays reuse.
type replayInput struct {
	suite      crypto.SuiteName
	reqPayload int // request payload bytes
	entries    int // entries per batch
	frameBytes int // bytes of a session frame carrying one batch; also the WAL record size
}

// replayCosts are per-call times in nanoseconds.
type replayCosts struct {
	sign, verify, digest                    float64
	reqEncode, reqDecode                    float64
	batchEncode, batchDecode, ackDecode     float64
	batchBytes                              float64
	poolAdd, poolNextBatch, poolMarkOrdered float64
	seal, open                              float64
	walAppend, fsyncP50, fsyncP99           float64
	apply                                   float64
	writeRead                               float64 // one loopback frame write plus its read
}

// timeOp returns the median over rounds of the mean nanoseconds per call
// of fn, called n times per round.
func timeOp(rounds, n int, fn func(i int)) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return quantile(per, 0.5)
}

// replay measures every layer. Each layer's replay is one span.
func replay(tr *tracer, in replayInput, dir string) (replayCosts, error) {
	var c replayCosts
	steps := []struct {
		name string
		fn   func() error
	}{
		{"replay.crypto", func() error { return replayCrypto(&c, in) }},
		{"replay.message", func() error { return replayMessage(&c, in) }},
		{"replay.core", func() error { replayPool(&c, in); return nil }},
		{"replay.session", func() error { return replaySession(&c, in) }},
		{"replay.wal", func() error { return replayWAL(&c, in, dir) }},
		{"replay.replica", func() error { replayApply(&c, in); return nil }},
		{"replay.tcpnet", func() error { return replayLoopback(&c, in) }},
	}
	for _, s := range steps {
		sp := tr.begin(s.name, 0, 0)
		err := s.fn()
		sp.end()
		if err != nil {
			return c, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return c, nil
}

func identities(suite crypto.SuiteName) (map[types.NodeID]*crypto.Identity, error) {
	s, err := crypto.ByName(suite)
	if err != nil {
		return nil, err
	}
	ids, _, err := crypto.NewDealer(s).Issue([]types.NodeID{0, 1})
	return ids, err
}

func testRequest(i, payload int) *message.Request {
	return &message.Request{
		Client: types.ClientID(0), ClientSeq: uint64(i) + 1,
		Payload: bytes.Repeat([]byte{'v'}, payload), Sig: make([]byte, 32),
	}
}

func replayCrypto(c *replayCosts, in replayInput) error {
	ids, err := identities(in.suite)
	if err != nil {
		return err
	}
	signer, verifier := ids[0], ids[1]
	body := testRequest(0, in.reqPayload).SignedBody()
	d := signer.Digest(body)
	sig, err := signer.Sign(d)
	if err != nil {
		return err
	}
	if err := verifier.Verify(0, d, sig); err != nil {
		return err
	}
	c.digest = timeOp(5, 2000, func(int) { signer.Digest(body) })
	c.sign = timeOp(5, 2000, func(int) { _, _ = signer.Sign(d) })
	c.verify = timeOp(5, 2000, func(int) { _ = verifier.Verify(0, d, sig) })
	return nil
}

func testBatch(entries int) *message.OrderBatch {
	b := &message.OrderBatch{Coord: 1, View: 1, FirstSeq: 1, Primary: 0, Shadow: 5,
		Sig1: make([]byte, 32), Sig2: make([]byte, 32)}
	for i := 0; i < entries; i++ {
		b.Entries = append(b.Entries, message.OrderEntry{
			Req: message.ReqID{Client: types.ClientID(0), ClientSeq: uint64(i) + 1}, ReqDigest: make([]byte, 32)})
	}
	return b
}

func replayMessage(c *replayCosts, in replayInput) error {
	const n = 2000
	reqs := make([]*message.Request, 5*n)
	for i := range reqs {
		reqs[i] = testRequest(i, in.reqPayload)
	}
	c.reqEncode = timeOp(5, n, func(i int) { reqs[i].Marshal() })
	wire := reqs[0].Marshal()
	c.reqDecode = timeOp(5, n, func(int) { _, _ = message.Decode(wire) })

	batches := make([]*message.OrderBatch, 5*n)
	for i := range batches {
		batches[i] = testBatch(in.entries)
	}
	c.batchEncode = timeOp(5, n, func(i int) { batches[i].Marshal() })
	bw := batches[0].Marshal()
	c.batchBytes = float64(len(bw))
	c.batchDecode = timeOp(5, n, func(int) { _, _ = message.Decode(bw) })

	ack := &message.Ack{From: 1, Kind: message.SubjectBatch, View: 1, FirstSeq: 1,
		SubjectDigest: make([]byte, 32), Sig: make([]byte, 32)}
	aw := ack.Marshal()
	c.ackDecode = timeOp(5, n, func(int) { _, _ = message.Decode(aw) })
	for _, w := range [][]byte{wire, bw, aw} {
		if _, err := message.Decode(w); err != nil {
			return err
		}
	}
	return nil
}

// replayPool replays one primary's and one replica's pool traffic: every
// request added, then drained into batches (the primary) or marked
// ordered one by one (a replica that learns the order from a batch).
func replayPool(c *replayCosts, in replayInput) {
	const n = 4096
	digest := 32
	maxBytes := in.entries * (in.reqPayload + core.EntryOverhead + digest)
	var add, next, mark []float64
	for round := 0; round < 5; round++ {
		reqs := make([]*message.Request, n)
		for i := range reqs {
			reqs[i] = testRequest(round*n+i, in.reqPayload)
		}
		primary, rep := core.NewRequestPool(), core.NewRequestPool()
		t0 := time.Now()
		for _, r := range reqs {
			primary.Add(r)
		}
		add = append(add, float64(time.Since(t0).Nanoseconds())/n)
		for _, r := range reqs {
			rep.Add(r)
		}
		calls := 0
		t0 = time.Now()
		for len(primary.NextBatch(maxBytes, digest)) > 0 {
			calls++
		}
		next = append(next, float64(time.Since(t0).Nanoseconds())/float64(max(calls, 1)))
		t0 = time.Now()
		for _, r := range reqs {
			rep.MarkOrdered(r.ID())
		}
		mark = append(mark, float64(time.Since(t0).Nanoseconds())/n)
	}
	c.poolAdd, c.poolNextBatch, c.poolMarkOrdered = quantile(add, 0.5), quantile(next, 0.5), quantile(mark, 0.5)
}

func replaySession(c *replayCosts, in replayInput) error {
	cfg := &session.Config{Keys: crypto.NewLinkKeys(bytes.Repeat([]byte{7}, 32)), Resume: true}
	s := cfg.NewSender(0, 1)
	r := cfg.NewReceiver(1, 0)
	if err := r.VerifyHello(s.Hello()); err != nil {
		return err
	}
	body := bytes.Repeat([]byte{'f'}, max(in.frameBytes-session.Overhead, 1))
	const n = 2000
	sealed := make([]session.Frame, 0, 5*n)
	c.seal = timeOp(5, n, func(int) { sealed = append(sealed, s.Seal(body)) })
	wire := make([][]byte, len(sealed))
	for i, f := range sealed {
		wire[i] = f.Append(nil)
	}
	var openErr error
	c.open = timeOp(5, n, func(i int) {
		if _, err := r.Open(wire[i]); err != nil {
			openErr = err
		}
	})
	return openErr
}

func replayWAL(c *replayCosts, in replayInput, dir string) error {
	l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "replay-wal"), SyncInterval: -1})
	if err != nil {
		return err
	}
	rec := bytes.Repeat([]byte{'w'}, max(in.frameBytes, 1))
	const n = 1000
	var appendErr error
	c.walAppend = timeOp(5, n, func(int) {
		if _, err := l.Append(rec); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		l.Close()
		return appendErr
	}
	// Group commit syncs a few records at a time.
	fsync := make([]float64, 0, 64)
	for i := 0; i < cap(fsync); i++ {
		for j := 0; j < 8; j++ {
			if _, err := l.Append(rec); err != nil {
				l.Close()
				return err
			}
		}
		t0 := time.Now()
		if err := l.Sync(); err != nil {
			l.Close()
			return err
		}
		fsync = append(fsync, float64(time.Since(t0).Nanoseconds()))
	}
	c.fsyncP50, c.fsyncP99 = quantile(fsync, 0.5), quantile(fsync, 0.99)
	return l.Close()
}

// replayApply applies committed batches of SETs to one KV replica.
func replayApply(c *replayCosts, in replayInput) {
	const batches = 1024
	pool := core.NewRequestPool()
	events := make([]core.CommitEvent, batches)
	seq := types.Seq(1)
	for b := range events {
		ev := core.CommitEvent{Node: 0, Kind: message.SubjectBatch, FirstSeq: seq}
		for e := 0; e < in.entries; e++ {
			i := b*in.entries + e
			req := &message.Request{Client: types.ClientID(0), ClientSeq: uint64(i) + 1,
				Payload: replica.EncodeKV(replica.KVSet, fmt.Sprintf("k%05d", i%4096), string(bytes.Repeat([]byte{'v'}, max(in.reqPayload-8, 1))))}
			pool.Add(req)
			ev.Entries = append(ev.Entries, message.OrderEntry{Req: req.ID()})
			seq++
		}
		ev.LastSeq = seq - 1
		events[b] = ev
	}
	var per []float64
	for round := 0; round < 5; round++ {
		rep := replica.New(0, replica.NewKVStore())
		t0 := time.Now()
		for _, ev := range events {
			rep.HandleCommit(pool, ev)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batches*in.entries))
	}
	c.apply = quantile(per, 0.5)
}

// replayLoopback times one frame written to a loopback TCP connection and
// read back whole, which is two of the syscalls tcpnet makes per frame.
func replayLoopback(c *replayCosts, in replayInput) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer w.Close()
	r, ok := <-accepted
	if !ok {
		return fmt.Errorf("loopback accept failed")
	}
	defer r.Close()
	frame := bytes.Repeat([]byte{'t'}, max(in.frameBytes, 1))
	buf := make([]byte, len(frame))
	var ioErr error
	c.writeRead = timeOp(5, 1000, func(int) {
		if _, err := w.Write(frame); err != nil {
			ioErr = err
			return
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			ioErr = err
		}
	})
	return ioErr
}

// replayAPI times Submit and Results on a simulated public-API cluster:
// the sof layer's figures for a workload that does not use it.
func replayAPI(tr *tracer) error {
	c, err := sof.NewCluster(sof.Config{Protocol: sof.SC, F: kvF, Simulated: true,
		BatchInterval: kvInterval, StateMachine: sof.NewKVStore})
	if err != nil {
		return err
	}
	c.Start()
	for i := 0; i < 200; i++ {
		trace := tr.newTrace()
		sp := tr.begin("sof.submit", 0, trace)
		id, err := c.Submit(sof.EncodeKV(sof.KVSet, fmt.Sprintf("k%d", i), "v"))
		sp.end()
		if err != nil {
			return err
		}
		if err := c.AwaitCommit(id, 5*time.Second); err != nil {
			return err
		}
		sp = tr.begin("sof.results", 0, trace)
		res := c.Results(id)
		sp.end()
		if err := verifyResults([]byte("OK"), res, kvF); err != nil {
			return err
		}
	}
	return nil
}

// layerRow is one line of the per-layer budget: a cost per call and how
// many calls one committed request makes.
type layerRow struct {
	layer, call string
	ns, perReq  float64
}

// budget predicts CPU per committed request from the replay costs and the
// per-request counts of the SC normal part (paper Figure 3): the client
// signs each request; each of the n processes decodes, digests and
// verifies it, adds it to its pool, marks it ordered and applies it; per
// batch the primary batches, encodes and signs, the shadow countersigns,
// every process decodes the batch and checks both signatures, signs an
// ack, and decodes and verifies the n acks. Frames, syscalls and WAL
// appends per request are measured, not modelled.
func budget(c replayCosts, n, entries, frames, syscalls, walAppends float64, sessions bool) []layerRow {
	perBatch := 1 / entries
	rows := []layerRow{
		{"crypto", "sign", c.sign, 1 + perBatch*(2+n)},
		{"crypto", "verify", c.verify, n + perBatch*(1+2*n+n*n)},
		{"crypto", "digest", c.digest, 1 + n + perBatch*(2+n+n*n)},
		{"message", "request encode", c.reqEncode, 1},
		{"message", "request decode", c.reqDecode, n},
		{"message", "batch encode", c.batchEncode, perBatch},
		{"message", "batch decode", c.batchDecode, perBatch * n},
		{"message", "ack decode", c.ackDecode, perBatch * n * n},
		{"core", "pool add", c.poolAdd, n},
		{"core", "pool next batch", c.poolNextBatch, perBatch},
		{"core", "pool mark ordered", c.poolMarkOrdered, n - 1},
		{"replica", "apply", c.apply, n},
		{"tcpnet", "frame write+read", c.writeRead, syscalls / 2},
		{"wal", "append", c.walAppend, walAppends},
	}
	if sessions {
		rows = append(rows, layerRow{"session", "seal+open", c.seal + c.open, frames})
	}
	return rows
}

// perLayer turns the traced run's spans, counts and replays into the
// per-layer metrics, and prints the layer budget.
func perLayer(r *runner, tr *tracer) (map[string]metric, error) {
	r.mu.Lock()
	counts := make(map[string]float64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	heapPeak := r.heapPeak
	win := r.win
	r.mu.Unlock()
	ops := float64(win.ops)
	per := func(name string) float64 {
		if ops == 0 {
			return 0
		}
		return counts[name] / ops
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	sim := r.workload == "paper-sim"
	in := replayInput{suite: crypto.HMACSHA256, reqPayload: valueBytes + 10}
	if sim {
		in = replayInput{suite: crypto.ModelPrefix + crypto.MD5RSA1024, reqPayload: simReqBytes}
		in.entries = int(ratio(counts["sim.committed"], counts["sim.batches"]) + 0.5)
	} else {
		in.entries = int(ratio(counts["core.entries"], counts["core.batches"]) + 0.5)
	}
	in.entries = max(in.entries, 1)
	// The process's write bytes include WAL writes on durable workloads,
	// so the replays use the frame of an OrderBatch at the measured fill.
	in.frameBytes = len(testBatch(in.entries).Marshal()) + session.Overhead
	costs, err := replay(tr, in, r.dataDir)
	if err != nil {
		return nil, err
	}
	if sim {
		if err := replayAPI(tr); err != nil {
			return nil, fmt.Errorf("sof replay: %w", err)
		}
	}

	self := tr.selfTimes()
	median := func(name string, unit float64) float64 {
		return quantile(self[name], 0.5) / unit
	}
	m := map[string]metric{
		"sof.submit_us":                 {median("sof.submit", 1e3), "us"},
		"sof.result_check_us":           {median("sof.results", 1e3), "us"},
		"core.entries_per_batch":        {float64(in.entries), "count"},
		"core.batch_fill_ratio":         {ratio(counts["core.fill_sum"], counts["core.fill_samples"]), "ratio"},
		"core.pool_add_ns":              {costs.poolAdd, "ns"},
		"core.pool_next_batch_ns":       {costs.poolNextBatch, "ns"},
		"core.pool_mark_ordered_ns":     {costs.poolMarkOrdered, "ns"},
		"message.request_encode_ns":     {costs.reqEncode, "ns"},
		"message.request_decode_ns":     {costs.reqDecode, "ns"},
		"message.batch_encode_ns":       {costs.batchEncode, "ns"},
		"message.batch_decode_ns":       {costs.batchDecode, "ns"},
		"message.ack_decode_ns":         {costs.ackDecode, "ns"},
		"message.batch_bytes":           {costs.batchBytes, "B"},
		"crypto.sign_ns":                {costs.sign, "ns"},
		"crypto.verify_ns":              {costs.verify, "ns"},
		"crypto.digest_ns":              {costs.digest, "ns"},
		"session.seal_ns":               {costs.seal, "ns"},
		"session.open_ns":               {costs.open, "ns"},
		"tcpnet.frames_per_req":         {per("tcpnet.frames"), "count"},
		"tcpnet.write_syscalls_per_req": {per("io.syscw"), "count"},
		"tcpnet.read_syscalls_per_req":  {per("io.syscr"), "count"},
		"tcpnet.bytes_written_per_req":  {per("io.wchar"), "B"},
		"tcpnet.frame_write_read_ns":    {costs.writeRead, "ns"},
		"wal.appends_per_req":           {per("wal.appends"), "count"},
		"wal.syncs_per_s":               {ratio(counts["wal.syncs"], win.wall.Seconds()), "1/s"},
		"wal.fsync_p50_us":              {costs.fsyncP50 / 1e3, "us"},
		"wal.fsync_p99_us":              {costs.fsyncP99 / 1e3, "us"},
		"wal.append_ns":                 {costs.walAppend, "ns"},
		"replica.apply_ns":              {costs.apply, "ns"},
		"replica.retries":               {counts["replica.retries"], "count"},
		"go.gc_cpu_ms_per_kop":          {ratio(win.gcCPU*1e3, ops/1e3), "ms"},
		"go.heap_peak_mb":               {heapPeak / (1 << 20), "MB"},
		"des.steps":                     {counts["des.steps"], "count"},
		"des.steps_per_s":               {ratio(counts["des.steps"], counts["des.step_wall_s"]), "1/s"},
		"order.reordered":               {counts["order.reordered"], "count"},
		"catchup.missed_seqs":           {ratio(counts["catchup.missed"], counts["catchup.cycles"]), "count"},
		"catchup.seqs_per_s":            {ratio(counts["catchup.missed"], counts["catchup.s"]), "1/s"},
	}

	// The layer budget, per committed request.
	n := float64(2*kvF + 1 + kvF)
	reqs, measuredNs := ops, float64(win.cpu.Nanoseconds())
	if sim {
		reqs = counts["sim.committed"] // simulated requests, committed at one process
	}
	rows := budget(costs, n, float64(in.entries), per("tcpnet.frames"), per("io.syscr")+per("io.syscw"),
		per("wal.appends"), r.workload != "kv-saturate" && !sim)
	var predicted float64
	r.logf("layer budget per committed request (%s, n=%.0f, %d entries/batch, %.0f requests):", r.workload, n, in.entries, reqs)
	for _, row := range rows {
		ns := row.ns * row.perReq
		predicted += ns
		r.logf("  %-8s %-18s %9.0f ns/call x %8.3f calls/req = %9.0f ns/req", row.layer, row.call, row.ns, row.perReq, ns)
	}
	measured := ratio(measuredNs, reqs)
	r.logf("  predicted %.0f ns/req of measured %.0f ns/req process CPU (%.1f%% of measured); residual %.0f ns/req (%.1f%% of measured)",
		predicted, measured, ratio(predicted, measured)*100, measured-predicted, ratio(measured-predicted, measured)*100)
	m["budget.predicted_us_per_req"] = metric{predicted / 1e3, "us"}
	m["budget.measured_us_per_req"] = metric{measured / 1e3, "us"}
	m["budget.residual_pct"] = metric{ratio(measured-predicted, measured) * 100, "%"}
	return m, nil
}

// printLayerTable prints the per-layer metrics, sorted by name.
func printLayerTable(r *runner, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	r.logf("per-layer metrics (%s, traced run):", r.workload)
	for _, k := range names {
		r.logf("  %-32s %14.3f %s", k, m[k].Value, m[k].Unit)
	}
}
