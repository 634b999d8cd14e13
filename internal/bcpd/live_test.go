package bcpd

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/realtime"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// liveTestbed is the wall-clock twin of testbed: the same 3x3 mesh and
// D-connection (primary 0-1-2, backup 0-3-4-5-2), but every one of the nine
// daemons runs as a realtime actor and traffic crosses a PipeTransport.
type liveTestbed struct {
	g    *topology.Graph
	rt   *realtime.Runtime
	mgr  *core.Manager
	net  *Network
	conn *core.DConnection
	tr   *PipeTransport
	chk  *conformance.Checker
}

// liveConformanceParams widens the in-flight tolerance far past the sim
// value: under wall clock (and -race) a delivery can trail a failure by
// scheduler jitter, not just propagation delay.
func liveConformanceParams(cfg Config) conformance.Params {
	p := cfg.Conformance(testbedMbps)
	p.DMax = 0 // wall clock: Γ p95 sits at the bound and needs testhost slack first (ROADMAP 1(b)-live)
	p.PropSlack = cfg.PropDelay + sim.Duration(500*time.Millisecond)
	return p
}

// newLiveTestbed boots the testbed scenario on a wall-clock runtime. The
// conformance checker is attached first so its cleanup (which inspects the
// final trace) runs after the shutdown cleanup stops the world.
func newLiveTestbed(t *testing.T, cfg Config, seed int64) *liveTestbed {
	t.Helper()
	g := topology.NewMesh(3, 3, testbedMbps)
	rt := realtime.New(seed)
	rt.StartActors(g.NumNodes(), 1024)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	conn, err := mgr.EstablishOnPaths(spec,
		path(t, g, 0, 1, 2),
		[]topology.Path{path(t, g, 0, 3, 4, 5, 2)},
		[]int{1})
	if err != nil {
		rt.Stop()
		t.Fatal(err)
	}
	chk := attachConformance(t, &cfg, liveConformanceParams(cfg))
	tr := NewPipeTransport(rt.Post, 1024)
	lt := &liveTestbed{g: g, rt: rt, mgr: mgr, conn: conn, tr: tr, chk: chk}
	t.Cleanup(lt.shutdown)
	// Construction arms timers and emits install events; run it serialized
	// so nothing fires against a half-built network.
	rt.Exec(func() { lt.net = NewOn(rt, tr, mgr, cfg) })
	return lt
}

// shutdown stops the transport before the runtime (pipes post into
// mailboxes) and is idempotent, so tests can call it explicitly and rely on
// the cleanup as a backstop.
func (lt *liveTestbed) shutdown() {
	lt.tr.Close()
	lt.rt.Stop()
}

// exec runs fn serialized with the protocol.
func (lt *liveTestbed) exec(fn func()) { lt.rt.Exec(fn) }

// waitFor polls cond (serialized) until it holds or the deadline passes.
func (lt *liveTestbed) waitFor(t *testing.T, what string, deadline time.Duration, cond func() bool) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		var ok bool
		lt.rt.Exec(func() { ok = cond() })
		if ok {
			return
		}
		if time.Now().After(limit) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLiveRecoveryAndCleanShutdown drives nine live daemons through a full
// fail -> recover -> rejoin cycle over the pipe transport, then shuts the
// world down and checks that every goroutine the runtime and transport
// started has exited. Run under -race this also vouches that all protocol
// state is reached only through the execution lock and that late posts after
// Stop are refused rather than panicking on a closed channel.
func TestLiveRecoveryAndCleanShutdown(t *testing.T) {
	before := goruntime.NumGoroutine()

	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(60 * time.Second)
	cfg.RejoinProbeDelay = sim.Duration(25 * time.Millisecond)
	lt := newLiveTestbed(t, cfg, 1)

	var startErr error
	lt.exec(func() { startErr = lt.net.StartTraffic(lt.conn.ID, 500) })
	if startErr != nil {
		t.Fatal(startErr)
	}
	lt.waitFor(t, "pre-failure data", 10*time.Second, func() bool {
		return lt.net.Stats().DataDelivered >= 20
	})

	// Fail the primary's last hop; the source must switch to the backup and
	// data arrive on it.
	l := lt.g.LinkBetween(1, 2)
	lt.exec(func() { lt.net.FailLink(l) })
	lt.waitFor(t, "data on the backup", 10*time.Second, func() bool {
		return len(lt.chk.Recoveries()) == 1
	})

	// Repair; the probed rejoin request is held across the outage and the
	// old primary rejoins as a healthy channel.
	lt.exec(func() { lt.net.RepairLink(l) })
	lt.waitFor(t, "rejoin", 10*time.Second, func() bool {
		return lt.net.Stats().Rejoins >= 1
	})

	lt.shutdown()

	// A post after Stop must be refused, never panic.
	if lt.rt.Post(0, func() {}) {
		t.Fatal("Post accepted work after Stop")
	}
	// shutdown() double-stops via the cleanup; make one explicit too.
	lt.shutdown()

	// Every runtime, actor, and pipe goroutine has joined. Poll briefly:
	// a goroutine is still counted for an instant after its WaitGroup.Done.
	limit := time.Now().Add(5 * time.Second)
	for {
		if n := goruntime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(limit) {
			t.Fatalf("goroutine leak: %d before, %d after shutdown", before, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chanOn identifies one channel's state machine at one node.
type chanOn struct {
	node topology.NodeID
	ch   rtchan.ChannelID
}

// hop is one Figure-4 transition.
type hop struct {
	from, to trace.State
}

// stateSequences reduces a trace to each (node, channel)'s ordered Figure-4
// transition sequence — the timestamp-free skeleton of a run.
func stateSequences(evs []trace.Event) map[chanOn][]hop {
	out := make(map[chanOn][]hop)
	for _, ev := range evs {
		if ev.Kind != trace.KindState {
			continue
		}
		k := chanOn{node: ev.Node, ch: ev.Channel}
		out[k] = append(out[k], hop{from: ev.From, to: ev.To})
	}
	return out
}

func formatSequences(m map[chanOn][]hop) string {
	keys := make([]chanOn, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].ch < keys[j].ch
	})
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("  node %d channel %d:", k.node, k.ch)
		for _, h := range m[k] {
			s += fmt.Sprintf(" %v->%v", h.from, h.to)
		}
		s += "\n"
	}
	return s
}

// TestSimLiveEquivalence runs the same scripted link failure under the
// deterministic engine and under the wall-clock runtime with live pipes,
// checks both traces with the conformance checker (via attachConformance),
// and requires every (node, channel) to walk the identical ordered Figure-4
// transition sequence. Timestamps differ between the worlds; the protocol's
// state skeleton must not.
func TestSimLiveEquivalence(t *testing.T) {
	// Sim leg: testbed scenario, fail link 1-2 at 50ms, run to quiescence.
	simRec := &trace.Recorder{}
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(60 * time.Second)
	cfg.Sink = simRec
	tb := newTestbed(t, cfg)
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	tb.eng.At(sim.Time(50*time.Millisecond), func() {
		tb.net.FailLink(tb.g.LinkBetween(1, 2))
	})
	tb.eng.RunFor(400 * time.Millisecond)
	simSeq := stateSequences(simRec.Events)

	// Live leg: same topology, connection, and failure script.
	liveRec := &trace.Recorder{}
	liveCfg := DefaultConfig()
	liveCfg.RejoinTimeout = sim.Duration(60 * time.Second)
	liveCfg.Sink = liveRec
	lt := newLiveTestbed(t, liveCfg, 1)
	var startErr error
	lt.exec(func() { startErr = lt.net.StartTraffic(lt.conn.ID, 1000) })
	if startErr != nil {
		t.Fatal(startErr)
	}
	lt.waitFor(t, "pre-failure data", 10*time.Second, func() bool {
		return lt.net.Stats().DataDelivered >= 20
	})
	lt.exec(func() { lt.net.FailLink(lt.g.LinkBetween(1, 2)) })
	lt.waitFor(t, "source switch", 10*time.Second, func() bool {
		return len(lt.net.SourceSwitches(lt.conn.ID)) == 1
	})
	// Quiescence: no new state transitions for a spell.
	count := func() (n int) {
		for _, ev := range liveRec.Events {
			if ev.Kind == trace.KindState {
				n++
			}
		}
		return n
	}
	var last int
	lt.exec(func() { last = count() })
	limit := time.Now().Add(10 * time.Second)
	for streak := 0; streak < 10; {
		time.Sleep(20 * time.Millisecond)
		var now int
		lt.exec(func() { now = count() })
		if now == last {
			streak++
		} else {
			streak, last = 0, now
		}
		if time.Now().After(limit) {
			t.Fatal("live run did not quiesce")
		}
	}
	lt.shutdown()
	liveSeq := stateSequences(liveRec.Events)

	if len(simSeq) != len(liveSeq) {
		t.Fatalf("state machines touched: sim %d, live %d\nsim:\n%slive:\n%s",
			len(simSeq), len(liveSeq), formatSequences(simSeq), formatSequences(liveSeq))
	}
	for k, want := range simSeq {
		got := liveSeq[k]
		if len(got) != len(want) {
			t.Fatalf("node %d channel %d: sim %v, live %v", k.node, k.ch, want, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d channel %d transition %d: sim %v->%v, live %v->%v",
					k.node, k.ch, i, want[i].from, want[i].to, got[i].from, got[i].to)
			}
		}
	}
}
