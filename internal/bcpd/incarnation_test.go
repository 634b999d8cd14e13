package bcpd

import (
	"slices"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// TestRepairedNodeRetransmitsDeadIncarnationFrames pins ROADMAP 10's defect:
// RepairNode replaces a node's daemon but not its RCC endpoints, so a frame
// the dead incarnation sent and never had acknowledged is retransmitted by
// the rebooted node. Transit node 4 of the testbed's backup crashes the
// instant it forwards its first activation frame and is repaired after more
// than RetxTimeout. A KindRCCRetransmit from one of its endpoints after
// KindNodeUp is stale when its sequence number (Aux) was used on that link
// before KindNodeDown and no frame sent on it since could carry it, whether
// the new incarnation numbers from 1 or continues the old count. Observed:
// one, the activation frame to node 3, which node 3 then acts on as an
// activation hop. ROADMAP 10(b) makes the count zero.
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
	tb.eng.RunFor(2 * cfg.RCC.RetxTimeout)
	tb.net.RepairNode(node)
	tb.eng.RunFor(500 * time.Millisecond)

	// An endpoint's sequence numbers start at 1 and count its new frames.
	sentBefore, sentAfter := make(map[topology.LinkID]int64), make(map[topology.LinkID]int64)
	down, up, stale := false, false, 0
	for _, ev := range rec.Events {
		switch mine := ev.Node == node; {
		case mine && ev.Kind == trace.KindNodeDown:
			down = true
		case mine && ev.Kind == trace.KindNodeUp:
			up = true
		case sends(ev) && !down:
			sentBefore[ev.Link]++
		case sends(ev) && up:
			sentAfter[ev.Link]++
		case mine && ev.Kind == trace.KindRCCRetransmit && up &&
			ev.Aux <= sentBefore[ev.Link] && ev.Aux > sentAfter[ev.Link]:
			stale++
		}
	}
	const want = 1 // ROADMAP 10(b): 0
	if len(sentBefore) == 0 || !up || stale != want {
		t.Errorf("node 4 sent on %d links before its crash, repaired %v; %d stale retransmits after repair, want %d",
			len(sentBefore), up, stale, want)
	}
}
