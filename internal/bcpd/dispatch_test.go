package bcpd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/wire"
)

// Dispatch rounds (round.go) must be a pure mechanism change: batching the
// fan-out per link, bulk-arming rejoin timers, and batching claim releases
// may not move, reorder, or drop a single protocol event relative to the
// per-message engine. These tests run the same seeded storm twice — once
// with PerMessageDispatch, once batched — and require the two worlds to be
// bit-identical: full trace streams, network counters, every daemon's
// channel state, and the quiescence audit.

// dispatchWorld is the end state of one seeded storm run.
type dispatchWorld struct {
	events []trace.Event
	stats  Stats
	states []map[rtchan.ChannelID]chanState
	quiet  []string
}

// runDispatchWorld runs one seeded storm, checked, with an optional FrameTap:
// the corpus harvester (harvest_test.go) taps the same storms the
// equivalence tests compare.
func runDispatchWorld(t *testing.T, seed int64, perMsg, heartbeat bool, tap func(topology.LinkID, []byte)) dispatchWorld {
	t.Helper()
	g := topology.NewTorus(6, 6, 100)
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	rng := rand.New(rand.NewSource(seed))
	conns := randomConns(mgr, rng, 70, 4)
	rec := &trace.Recorder{}
	cfg := DefaultConfig()
	cfg.Sink = rec
	cfg.PerMessageDispatch = perMsg
	cfg.RejoinTimeout = sim.Duration(600 * time.Millisecond)
	cfg.RejoinProbeDelay = sim.Duration(60 * time.Millisecond)
	if heartbeat {
		cfg.HeartbeatInterval = sim.Duration(20 * time.Millisecond)
	}
	cfg.FrameTap = tap
	net := newChecked(t, eng, NewSimTransport(), mgr, cfg, nil)
	startTraffic(t, net, 100, conns[:4]...)
	// Draw the whole fault schedule upfront so both worlds consume the rng
	// identically regardless of what the run does with it.
	var failedNodes []topology.NodeID
	var failedLinks []topology.LinkID
	for i := 0; i < 10; i++ {
		at := sim.Duration(80+230*i) * sim.Duration(time.Millisecond)
		if i%3 == 0 {
			v := topology.NodeID(rng.Intn(36))
			failedNodes = append(failedNodes, v)
			repair := i%6 == 0
			eng.Schedule(at, func() {
				net.FailNode(v)
				if repair {
					eng.Schedule(140*time.Millisecond, func() { net.RepairNode(v) })
				}
			})
		} else {
			l := topology.LinkID(rng.Intn(g.NumLinks()))
			failedLinks = append(failedLinks, l)
			repair := i%2 == 0
			eng.Schedule(at, func() {
				net.FailLink(l)
				if repair {
					eng.Schedule(140*time.Millisecond, func() { net.RepairLink(l) })
				}
			})
		}
	}
	eng.RunFor(3 * time.Second)
	// Heal the world and drain so the end states are comparable quiet
	// points, then audit.
	for _, v := range failedNodes {
		net.RepairNode(v)
	}
	for _, l := range failedLinks {
		net.RepairLink(l)
	}
	for _, c := range conns[:4] {
		net.StopTraffic(c.ID)
	}
	eng.RunFor(5 * time.Second)
	w := dispatchWorld{events: rec.Events, stats: net.Stats(), quiet: net.CheckQuiescence()}
	w.states = nodeStates(net.Network)
	return w
}

// nodeStates returns, per node, the channels it holds out of N and their
// states, read through the daemon's State for every record in the table.
func nodeStates(net *Network) []map[rtchan.ChannelID]chanState {
	states := make([]map[rtchan.ChannelID]chanState, len(net.nodes))
	for v := range states {
		states[v] = make(map[rtchan.ChannelID]chanState)
	}
	net.soft.tab.Each(func(ch rtchan.ChannelID, r *chanSoft) {
		for _, v := range r.ch.Path.Nodes() {
			if s := net.nodes[v].State(ch); s != stateN {
				states[v][ch] = s
			}
		}
	})
	return states
}

func requireSameWorlds(t *testing.T, ctx string, seq, bat dispatchWorld) {
	t.Helper()
	if len(seq.events) != len(bat.events) {
		t.Fatalf("%s: event count %d vs %d", ctx, len(seq.events), len(bat.events))
	}
	for i := range seq.events {
		if seq.events[i] != bat.events[i] {
			t.Fatalf("%s: event %d diverged:\n  per-message: %v\n  batched:     %v",
				ctx, i, seq.events[i], bat.events[i])
		}
	}
	if seq.stats != bat.stats {
		t.Fatalf("%s: stats diverged:\n  per-message: %+v\n  batched:     %+v", ctx, seq.stats, bat.stats)
	}
	for v := range seq.states {
		ss, sb := seq.states[v], bat.states[v]
		if len(ss) != len(sb) {
			t.Fatalf("%s: node %d holds %d channel states vs %d", ctx, v, len(ss), len(sb))
		}
		for ch, s := range ss {
			if sb[ch] != s {
				t.Fatalf("%s: node %d channel %d state %v vs %v", ctx, v, ch, s, sb[ch])
			}
		}
	}
	if len(seq.quiet) != len(bat.quiet) {
		t.Fatalf("%s: quiescence audit %v vs %v", ctx, seq.quiet, bat.quiet)
	}
	for i := range seq.quiet {
		if seq.quiet[i] != bat.quiet[i] {
			t.Fatalf("%s: quiescence audit line %d: %q vs %q", ctx, i, seq.quiet[i], bat.quiet[i])
		}
	}
}

func TestBatchedDispatchMatchesPerMessage(t *testing.T) {
	for _, hb := range []bool{false, true} {
		name := "oracle"
		if hb {
			name = "heartbeat"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				ctx := fmt.Sprintf("%s/seed%d", name, seed)
				seq := runDispatchWorld(t, seed, true, hb, nil)
				bat := runDispatchWorld(t, seed, false, hb, nil)
				if len(seq.events) == 0 {
					t.Fatalf("%s: storm produced no events; the comparison is vacuous", ctx)
				}
				requireSameWorlds(t, ctx, seq, bat)
			}
		})
	}
}

// TestHostileChannelIDs: a control's Channel field is whatever came off the
// wire. Ids no channel ever had — zero, negative, far past the registry's top
// page — must fall through every handler as an unknown channel: no panic, no
// state, and no allocation at all, which rules out the registry growing a
// page (or a directory) to look the id up.
func TestHostileChannelIDs(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	types := []wire.MsgType{
		wire.MsgFailureReport, wire.MsgActivation, wire.MsgRejoinRequest,
		wire.MsgRejoin, wire.MsgChannelClosure, wire.MsgLinkFailure,
	}
	// A primary-path daemon other than link 0's sender: for MsgLinkFailure the
	// field is a link id, and 0 is a real link whose sender would act on it.
	d := tb.net.nodes[2]
	if tb.g.Link(0).From == d.id {
		t.Fatal("testbed changed: node 2 sends on link 0")
	}
	barrage := func() {
		for _, typ := range types {
			for _, id := range []int64{0, -1, math.MinInt64, math.MaxInt64, 1 << 40} {
				for _, toward := range []int8{1, -1} {
					d.handleControl(wireControl{Type: typ, Channel: id, Origin: 1, Toward: toward})
				}
			}
		}
	}
	channels, stats := tb.mgr.Network().NumChannels(), tb.net.Stats()
	if allocs := testing.AllocsPerRun(10, barrage); allocs != 0 {
		t.Fatalf("unknown channel ids cost %v allocations per barrage", allocs)
	}
	tb.eng.RunFor(50 * time.Millisecond)
	if got := tb.mgr.Network().NumChannels(); got != channels {
		t.Fatalf("channels %d -> %d", channels, got)
	}
	if got := tb.net.Stats(); got != stats {
		t.Fatalf("stats moved: %+v -> %+v", stats, got)
	}
	if err := tb.mgr.Network().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !tb.net.ConnectionEstablished(tb.conn.ID) {
		t.Fatal("connection disturbed")
	}
}
