package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	sof "github.com/sof-repro/sof"
	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

func req(seq uint64) sof.ReqID { return sof.ReqID{Client: types.ClientID(0), ClientSeq: seq} }

// commit builds the commit event one node emits for a batch of requests
// starting at first.
func commit(node sof.NodeID, first types.Seq, ids ...sof.ReqID) core.CommitEvent {
	ev := core.CommitEvent{Node: node, Kind: message.SubjectBatch, FirstSeq: first, LastSeq: first + types.Seq(len(ids)) - 1}
	for _, id := range ids {
		ev.Entries = append(ev.Entries, message.OrderEntry{Req: id})
	}
	return ev
}

func TestOrderCheckerAcceptsOneOrder(t *testing.T) {
	c := newOrderChecker()
	for node := sof.NodeID(0); node < 7; node++ {
		c.consume([]core.CommitEvent{commit(node, 1, req(1), req(2)), commit(node, 3, req(3))}, 0)
	}
	if p := c.verify([]sof.ReqID{req(1), req(2), req(3)}); len(p) != 0 {
		t.Fatalf("consistent stream rejected: %v", p)
	}
}

func TestOrderCheckerCatchesForgedConflict(t *testing.T) {
	c := newOrderChecker()
	c.consume([]core.CommitEvent{commit(0, 1, req(1), req(2))}, 0)
	// A forged commit: node 3 claims another request at sequence 2.
	c.consume([]core.CommitEvent{commit(3, 1, req(1), req(9))}, 0)
	p := c.verify([]sof.ReqID{req(1), req(2)})
	if len(p) != 1 || !strings.Contains(p[0], "seq 2") {
		t.Fatalf("conflicting commit at seq 2 not reported: %v", p)
	}
}

func TestOrderCheckerFailsOnIncompleteStream(t *testing.T) {
	c := newOrderChecker()
	c.consume([]core.CommitEvent{commit(0, 1, req(1))}, 1)
	if p := c.verify([]sof.ReqID{req(1)}); len(p) != 1 || !strings.Contains(p[0], "dropped 1") {
		t.Fatalf("a dropped event must fail the check: %v", p)
	}
	if p := newOrderChecker().verify(nil); len(p) != 1 {
		t.Fatalf("an empty stream must fail the check: %v", p)
	}
}

func TestOrderCheckerFindsMissingAck(t *testing.T) {
	c := newOrderChecker()
	c.consume([]core.CommitEvent{commit(0, 1, req(1))}, 0)
	if p := c.verify([]sof.ReqID{req(1), req(2)}); len(p) != 1 || !strings.Contains(p[0], "1 acknowledged") {
		t.Fatalf("acknowledged request absent from the order not reported: %v", p)
	}
}

// Both nodes report the same duplicated requests, and one request is
// ordered at three sequence numbers: each request counts once.
func TestOrderCheckerCountsReorderedRequest(t *testing.T) {
	c := newOrderChecker()
	for node := sof.NodeID(0); node < 2; node++ {
		c.consume([]core.CommitEvent{
			commit(node, 1, req(1), req(2)),
			commit(node, 3, req(1), req(2)),
			commit(node, 5, req(2), req(3)),
		}, 0)
	}
	if len(c.reordered) != 2 || !c.reordered[req(1)] || !c.reordered[req(2)] {
		t.Fatalf("reordered = %v, want req 1 and req 2 once each", c.reordered)
	}
	if !strings.Contains(c.summary(), "2 requests ordered at more than one") {
		t.Fatalf("summary does not report the count: %s", c.summary())
	}
}

func TestVerifyResultsCatchesWrongValue(t *testing.T) {
	want := []byte("v1")
	good := map[sof.NodeID][]byte{0: want, 1: want, 2: want}
	if err := verifyResults(want, good, 2); err != nil {
		t.Fatalf("f+1 matching replicas rejected: %v", err)
	}
	wrong := map[sof.NodeID][]byte{0: want, 1: want, 2: want, 3: []byte("v2")}
	if err := verifyResults(want, wrong, 2); err == nil || errors.Is(err, errTooFew) {
		t.Fatalf("a replica returning a different value must fail the check, got %v", err)
	}
	few := map[sof.NodeID][]byte{0: want, 1: want}
	if err := verifyResults(want, few, 2); !errors.Is(err, errTooFew) {
		t.Fatalf("f matching replicas must not pass, got %v", err)
	}
}

func TestKVModelForgetsUnacknowledgedWrites(t *testing.T) {
	m := newKVModel()
	m.acked("a", "1")
	m.acked("b", "1")
	m.lost("b")
	if !m.known("a") || m.known("b") || m.known("c") {
		t.Fatalf("known: a=%v b=%v c=%v, want true false false", m.known("a"), m.known("b"), m.known("c"))
	}
	m.acked("a", "2")
	if got := m.value("a"); got != "2" {
		t.Fatalf("model value of a = %q after its second acknowledged write, want 2", got)
	}
}

func TestPacedInputsFollowTheSeed(t *testing.T) {
	k1, v1 := pacedKV(7, 0, 42)
	k2, v2 := pacedKV(7, 0, 42)
	_, v3 := pacedKV(8, 0, 42)
	if k1 != k2 || v1 != v2 || v1 == v3 || len(v1) != valueBytes {
		t.Fatalf("paced inputs: (%q,%q) (%q,%q) seed 8 %q", k1, v1, k2, v2, v3)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("q1 = %v, want 2", q)
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestPaperSimRunPrintsResult runs the cheapest workload end to end and
// checks the shape of its final line.
func TestPaperSimRunPrintsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulator sweep")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "paper-sim", "-seconds", "1", "-dir", t.TempDir()}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d: %s\n%s", code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	for _, name := range []string{"ops_per_s", "op_p50_ms", "op_p90_ms", "cpu_ms_per_kop", "allocs_per_op", "setup_s", "live_heap_kb_per_op"} {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("metric %s = %+v", name, m)
		}
	}
}

// TestPaperSimFailedFailOverFailsRun sweeps one good Figure 4/5 point and
// one Figure 6 point that cannot run: the run must report correct=false
// and exit non-zero.
func TestPaperSimFailedFailOverFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	defer func(prev func() []simPoint) { sweepPoints = prev }(sweepPoints)
	sweepPoints = func() []simPoint {
		return []simPoint{heapPoint, {proto: types.SC, suite: "no-such-suite", backlogKB: 1}}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "paper-sim", "-seconds", "1", "-dir", t.TempDir()}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1: %s\n%s", code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("no result line: %v\n%s", err, out.String())
	}
	if res.Correct || res.Failed == 0 || !strings.Contains(out.String(), "CHECK FAILED: fig6") {
		t.Fatalf("failed fail-over not reported: %+v\n%s", res, out.String())
	}
}
