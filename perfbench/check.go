package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	sof "github.com/sof-repro/sof"
	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/types"
)

// orderChecker consumes the commit stream and checks the single total
// order: no two processes commit different requests at one sequence
// number. It also remembers where each request was ordered, so every
// acknowledged request can be looked up afterwards.
type orderChecker struct {
	bySeq     map[types.Seq]sof.ReqID
	seqOf     map[sof.ReqID]types.Seq
	events    int
	dropped   uint64
	conflicts []string
	reordered map[sof.ReqID]bool // requests ordered at more than one sequence number
}

func newOrderChecker() *orderChecker {
	return &orderChecker{
		bySeq:     make(map[types.Seq]sof.ReqID),
		seqOf:     make(map[sof.ReqID]types.Seq),
		reordered: make(map[sof.ReqID]bool),
	}
}

// consume adds commit events. dropped is the number of events the stream
// evicted before they could be read; any such loss makes the check
// incomplete, and incomplete input fails it.
func (c *orderChecker) consume(events []core.CommitEvent, dropped uint64) {
	c.dropped += dropped
	for _, ev := range events {
		c.events++
		for i, e := range ev.Entries {
			seq := ev.FirstSeq + types.Seq(i)
			if prev, ok := c.bySeq[seq]; ok {
				if prev != e.Req && len(c.conflicts) < 10 {
					c.conflicts = append(c.conflicts,
						fmt.Sprintf("seq %d: %v committed at %v, but %v was committed there before", seq, e.Req, ev.Node, prev))
				}
				continue
			}
			c.bySeq[seq] = e.Req
			if s, ok := c.seqOf[e.Req]; ok && s != seq {
				c.reordered[e.Req] = true
				continue
			}
			c.seqOf[e.Req] = seq
		}
	}
}

// summary describes what the checker consumed, for the run's log.
func (c *orderChecker) summary() string {
	return fmt.Sprintf("%d commit events, %d sequence numbers, %d requests ordered at more than one sequence number",
		c.events, len(c.bySeq), len(c.reordered))
}

// verify returns every violation: conflicting commits, an incomplete
// stream, and acknowledged requests missing from the order.
func (c *orderChecker) verify(acked []sof.ReqID) []string {
	var out []string
	out = append(out, c.conflicts...)
	if c.dropped > 0 {
		out = append(out, fmt.Sprintf("commit stream dropped %d events before they were checked; the order check is incomplete", c.dropped))
	}
	if c.events == 0 {
		out = append(out, "commit stream delivered no events")
	}
	missing := 0
	var first sof.ReqID
	for _, id := range acked {
		if _, ok := c.seqOf[id]; !ok {
			if missing == 0 {
				first = id
			}
			missing++
		}
	}
	if missing > 0 {
		out = append(out, fmt.Sprintf("%d acknowledged requests absent from the committed order (first %v)", missing, first))
	}
	return out
}

// kvModel is the benchmark's own key-value state, computed from what it
// submitted. Every key is either owned by one closed-loop caller, which
// writes it only after its previous write was acknowledged, or written
// once, so the expected value never depends on the order the service
// chose.
type kvModel struct {
	mu      sync.Mutex
	want    map[string]string
	unknown map[string]bool // keys with a write whose outcome is unknown
}

func newKVModel() *kvModel {
	return &kvModel{want: make(map[string]string), unknown: make(map[string]bool)}
}

// acked records an acknowledged write.
func (m *kvModel) acked(key, value string) {
	m.mu.Lock()
	m.want[key] = value
	m.mu.Unlock()
}

// lost records a write that was not acknowledged: it may or may not have
// committed, so the key's value can no longer be predicted.
func (m *kvModel) lost(key string) {
	m.mu.Lock()
	m.unknown[key] = true
	m.mu.Unlock()
}

// known reports whether the model predicts key's value.
func (m *kvModel) known(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.want[key]
	return ok && !m.unknown[key]
}

func (m *kvModel) value(key string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.want[key]
}

// errTooFew reports a read that fewer than f+1 replicas have answered
// yet; the caller retries until its deadline.
var errTooFew = errors.New("too few replicas answered")

// verifyResults checks one read's per-replica results: at least f+1
// replicas return want, and no replica returns anything else.
func verifyResults(want []byte, results map[sof.NodeID][]byte, f int) error {
	agree := 0
	for node, got := range results {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("replica %v returned %q, model says %q", node, clip(got), clip(want))
		}
		agree++
	}
	if agree < f+1 {
		return fmt.Errorf("%w: %d returned the modelled value %q, want at least %d", errTooFew, agree, clip(want), f+1)
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 24 {
		return string(b[:24]) + "..."
	}
	return string(b)
}
