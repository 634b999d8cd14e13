package bcpd

import (
	"slices"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/rcc"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// TestRepairedNodeRetransmitsDeadIncarnationFrames checks that a reboot ends
// the node's RCC sessions on both sides: neither the repaired node nor a
// neighbour retransmits, after KindNodeUp, a frame sent before it. Transit
// node 4 of the testbed's backup (0-3-4-5-2) crashes the instant it forwards
// its first activation frame, to node 3, and is repaired after more than
// RetxTimeout. At that instant each side holds an unacknowledged frame on a
// link of node 4: node 4 the activation frame to node 3 it has just sent,
// and node 5 the activation frame to node 4 that node 4 was forwarding,
// whose acknowledgment was still waiting out AckDelay. Without the restart
// both are retransmitted after repair, and node 3 acts on the first as an
// activation hop. A
// KindRCCRetransmit on a link from or to node 4 after KindNodeUp is stale
// when its sequence number (Aux) was used on that link before KindNodeUp and
// no frame sent on it since could carry it.
func TestRepairedNodeRetransmitsDeadIncarnationFrames(t *testing.T) {
	rec := &trace.Recorder{}
	cfg := DefaultConfig()
	cfg.Sink = rec
	tb := newTestbed(t, cfg)
	const node = topology.NodeID(4)
	sends := func(ev trace.Event) bool { return ev.Kind == trace.KindRCCFrame && ev.Node == node }
	tb.net.FailLink(tb.g.LinkBetween(1, 2))
	for seen := 0; !slices.ContainsFunc(rec.Events[seen:], sends); {
		seen = len(rec.Events)
		if !tb.eng.Step() {
			t.Fatal("node 4 never forwarded an activation")
		}
	}
	tb.net.FailNode(node)
	tb.eng.RunFor(2 * rcc.RetxTimeout)
	tb.net.RepairNode(node)
	tb.eng.RunFor(500 * time.Millisecond)

	// An endpoint's sequence numbers start at 1 and count its new frames.
	sentBefore, sentAfter := make(map[topology.LinkID]int64), make(map[topology.LinkID]int64)
	up := false
	var stale [2]int // retransmits by node 4, and by its neighbours toward it
	for _, ev := range rec.Events {
		if ev.Kind == trace.KindNodeUp && ev.Node == node {
			up = true
			continue
		}
		if ev.Kind != trace.KindRCCFrame && ev.Kind != trace.KindRCCRetransmit {
			continue
		}
		side := 0
		if ev.Node != node {
			if tb.g.Link(ev.Link).To != node {
				continue
			}
			side = 1
		}
		switch {
		case ev.Kind == trace.KindRCCFrame && !up:
			sentBefore[ev.Link]++
		case ev.Kind == trace.KindRCCFrame:
			sentAfter[ev.Link]++
		case up && ev.Aux <= sentBefore[ev.Link] && ev.Aux > sentAfter[ev.Link]:
			stale[side]++
		}
	}
	if len(sentBefore) == 0 || !up || stale != [2]int{} {
		t.Errorf("%d links of node 4 carried frames before its repair, repaired %v; stale retransmits after repair: %d by node 4, %d toward it, want none",
			len(sentBefore), up, stale[0], stale[1])
	}
}
