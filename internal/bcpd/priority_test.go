package bcpd

import (
	"slices"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// priorityScenario builds two connections whose primaries share link 1->2
// and whose single backups share spare bandwidth on links 1->5 and 5->6
// (capacity for only one activation):
//
//	connLow  (degree 8): primary 1->2->3, backup 1->5->6->7->3
//	connHigh (degree 7): primary 1->2->6, backup 1->5->6
//
// Mesh 4x4:
//
//	 0  1  2  3
//	 4  5  6  7
//	 8  9 10 11
//	12 13 14 15
func priorityScenario(t *testing.T, cfg Config) (*Network, *sim.Engine, *topology.Graph, *core.DConnection, *core.DConnection) {
	t.Helper()
	g := topology.NewMesh(4, 4, 10)
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	connLow := establish(t, mgr, spec, path(t, g, 1, 2, 3), []topology.Path{path(t, g, 1, 5, 6, 7, 3)}, 8)
	connHigh := establish(t, mgr, spec, path(t, g, 1, 2, 6), []topology.Path{path(t, g, 1, 5, 6)}, 7)
	if got := mgr.Network().Spare(g.LinkBetween(1, 5)); got != 1 {
		t.Fatalf("spare on 1->5 = %g, want 1 (multiplexed)", got)
	}
	net := newChecked(t, eng, NewSimTransport(), mgr, cfg, cfg.Conformance(g.Link(0).Capacity))
	return net.Network, eng, g, connLow, connHigh
}

// muxFailure is one multiplexing failure on a stream with the channels
// holding a claim on its link at that moment.
type muxFailure struct {
	ev      trace.Event
	holders []rtchan.ChannelID
}

// muxFailures returns evs' multiplexing failures, replaying the claims to
// name each link's holders.
func muxFailures(evs []trace.Event) []muxFailure {
	held := make(map[topology.LinkID]map[rtchan.ChannelID]bool)
	var out []muxFailure
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindClaim:
			if held[ev.Link] == nil {
				held[ev.Link] = make(map[rtchan.ChannelID]bool)
			}
			held[ev.Link][ev.Channel] = true
		case trace.KindClaimRelease, trace.KindClaimConvert:
			delete(held[ev.Link], ev.Channel)
		case trace.KindMuxFailure:
			f := muxFailure{ev: ev}
			for ch := range held[ev.Link] {
				f.holders = append(f.holders, ch)
			}
			slices.Sort(f.holders)
			out = append(out, f)
		}
	}
	return out
}

func TestWithoutPriorityContentionCanDeadlock(t *testing.T) {
	// Baseline motivating §4.3: with neither delay nor preemption, the two
	// simultaneous Scheme-3 activations race from all four end nodes.
	// connLow's source-side activation claims link 1->5 while connHigh's
	// destination-side activation claims 5->6; each then fails its next
	// claim against the other's hold — BOTH connections suffer
	// multiplexing failures and neither recovers fast. (The backups
	// themselves are intact, so the rejoin machinery later restores them
	// as standbys.)
	cfg := DefaultConfig()
	rec := &trace.Recorder{}
	cfg.Sink = rec
	net, eng, g, connLow, connHigh := priorityScenario(t, cfg)
	low, high := connLow.Backups[0].ID, connHigh.Backups[0].ID
	eng.At(sim.Time(50*time.Millisecond), func() { net.FailLink(g.LinkBetween(1, 2)) })
	eng.RunFor(time.Second)
	fails := muxFailures(rec.Events)
	if got := net.Stats().MuxFailures; got < 2 || got != uint64(len(fails)) {
		t.Fatalf("mux failures = %d with %d on the stream, want the mutual kill", got, len(fails))
	}
	// The mutual kill, link by link: each backup fails on the link the other
	// holds.
	for _, w := range []struct {
		ch, holder rtchan.ChannelID
		link       topology.LinkID
	}{
		{low, high, g.LinkBetween(5, 6)},
		{high, low, g.LinkBetween(1, 5)},
	} {
		if !slices.ContainsFunc(fails, func(f muxFailure) bool {
			return f.ev.Channel == w.ch && f.ev.Link == w.link && slices.Contains(f.holders, w.holder)
		}) {
			t.Fatalf("no mux failure of channel %d on link %d held by channel %d: %v", w.ch, w.link, w.holder, fails)
		}
	}
	for name, conn := range map[string]*core.DConnection{"low": connLow, "high": connHigh} {
		if conn.Primary == nil || conn.Primary.Role != rtchan.RolePrimary || conn.Primary.Path.ContainsLink(g.LinkBetween(1, 2)) == false {
			t.Fatalf("%s: expected the dead original primary to remain, got %v", name, conn.Primary)
		}
	}
	// The intact backups rejoin as cold standbys after the probes.
	if net.Stats().Rejoins != 2 {
		t.Fatalf("rejoins = %d, want 2 (both unused backups restored)", net.Stats().Rejoins)
	}
	if len(connLow.Backups) != 1 || len(connHigh.Backups) != 1 {
		t.Fatalf("backups not restored: low=%d high=%d", len(connLow.Backups), len(connHigh.Backups))
	}
}

// TestDelayedActivationFavorsHighPriority is §4.3's delayed activation on
// the scenario TestWithoutPriorityContentionCanDeadlock deadlocks: degree 7
// waits 35 ms and degree 8 waits 40 ms, so connHigh's activation starts one
// unit before connLow's and claims the shared spare first. Both connections
// end on their former backups with no multiplexing failure.
func TestDelayedActivationFavorsHighPriority(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PriorityDelayUnit = sim.Duration(5 * time.Millisecond)
	rec := &trace.Recorder{}
	cfg.Sink = rec
	net, eng, g, connLow, connHigh := priorityScenario(t, cfg)
	low, high := connLow.Backups[0], connHigh.Backups[0]
	eng.At(sim.Time(50*time.Millisecond), func() { net.FailLink(g.LinkBetween(1, 2)) })
	eng.RunFor(time.Second)
	started := make(map[rtchan.ChannelID]sim.Time)
	for _, ev := range rec.Events {
		if _, seen := started[ev.Channel]; ev.Kind == trace.KindActivationStart && !seen {
			started[ev.Channel] = ev.At
		}
	}
	hi, okHigh := started[high.ID]
	lo, okLow := started[low.ID]
	if !okHigh || !okLow || lo-hi != sim.Time(5*time.Millisecond) {
		t.Fatalf("activations start high %v (%v) low %v (%v): want high one unit (5ms) first", hi, okHigh, lo, okLow)
	}
	if connHigh.Primary != high || connLow.Primary != low {
		t.Fatalf("primaries high %v low %v: want both former backups", connHigh.Primary, connLow.Primary)
	}
	if got := net.Stats().MuxFailures; got != 0 {
		t.Fatalf("%d multiplexing failures, want none", got)
	}
}

func TestPreemptionRevokesLowPriorityClaim(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AllowPreemption = true
	net, eng, g, connLow, connHigh := priorityScenario(t, cfg)
	eng.At(sim.Time(50*time.Millisecond), func() { net.FailLink(g.LinkBetween(1, 2)) })
	eng.RunFor(time.Second)
	if net.Stats().Preemptions == 0 {
		t.Fatal("no preemption occurred")
	}
	// The high-priority connection recovers; the preempted one is handled
	// as if its backup failed.
	if connHigh.Primary == nil || connHigh.Primary.Path.Hops() != 2 {
		t.Fatal("high-priority connection did not recover")
	}
	if connLow.Primary != nil && connLow.Primary.Path.Hops() == 4 {
		t.Fatal("preempted backup still ended up promoted")
	}
	if err := net.mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPreemptionNeverHitsHigherPriority(t *testing.T) {
	// Reverse the establishment order so the HIGH priority connection
	// claims first: the low-priority activation must NOT preempt it.
	g := topology.NewMesh(4, 4, 10)
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	connHigh := establish(t, mgr, spec, path(t, g, 1, 2, 6), []topology.Path{path(t, g, 1, 5, 6)}, 7)
	connLow := establish(t, mgr, spec, path(t, g, 1, 2, 3), []topology.Path{path(t, g, 1, 5, 6, 7, 3)}, 8)
	cfg := DefaultConfig()
	cfg.AllowPreemption = true
	net := newChecked(t, eng, NewSimTransport(), mgr, cfg, cfg.Conformance(g.Link(0).Capacity))
	eng.At(sim.Time(50*time.Millisecond), func() { net.FailLink(g.LinkBetween(1, 2)) })
	eng.RunFor(time.Second)
	if net.Stats().Preemptions != 0 {
		t.Fatal("lower priority preempted a higher-priority claim")
	}
	if connHigh.Primary == nil || connHigh.Primary.Path.Hops() != 2 {
		t.Fatal("high-priority connection lost its claim")
	}
	_ = connLow
}
