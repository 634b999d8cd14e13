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
	"github.com/rtcl/bcp/internal/testhost"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// liveTestbed is the wall-clock twin of testbed: the same 3x3 mesh and
// D-connection (primary 0-1-2, backup 0-3-4-5-2), but every one of the nine
// daemons runs as a realtime actor and traffic crosses a PipeTransport.
type liveTestbed struct {
	g    *topology.Graph
	rt   *realtime.Runtime
	net  *Checked
	conn *core.DConnection
	tr   *PipeTransport
}

// liveHostAllowance is what the wall clock may add to a recovery beyond the
// protocol waits the Γ bound counts: the OS waking actor and delay-line
// goroutines, up to one millisecond late for a parked Go process (DESIGN.md
// §12). Measured on a 2-vCPU box, this testbed's Γ was 1.63–1.85 ms quiet,
// 1.82–2.19 ms under -race and up to 3.98 ms beside CPU-bound tests, against
// a bound of 8.51 ms (three hops at 2.50 ms plus the 1 ms detection window):
// the bound holds with room, and the allowance covers the one thing the
// simulator cannot show.
const liveHostAllowance = sim.Duration(time.Millisecond)

// How many runs a live recovery gets to come in under the Γ bound, and how
// much CPU other processes may use during one before a miss is put down to
// the host (testhost.Retry). A miss is the wall clock's to forgive, never a
// wrong transition: every other rule fails the test on the first run.
const (
	liveAttempts = 3
	liveTolerate = 30 * time.Millisecond
)

// liveChecks adds liveHostAllowance to the checker's Γ bound and widens the
// in-flight tolerance far past the sim value: under wall clock (and -race) a
// delivery can trail a failure by scheduler jitter, not just propagation
// delay.
func liveChecks(cfg Config) func(*conformance.Params) {
	return func(p *conformance.Params) {
		counted := p.Gamma
		p.Gamma = func(r trace.Recovery) sim.Duration { return counted(r) + liveHostAllowance }
		p.PropSlack = cfg.PropDelay + sim.Duration(500*time.Millisecond)
	}
}

// newLiveTestbed boots the testbed scenario on a wall-clock runtime. The
// caller ends the run with gammaVerdict; the shutdown cleanup is a backstop.
func newLiveTestbed(t *testing.T, cfg Config, seed int64) *liveTestbed {
	t.Helper()
	g, mgr, conn := testbedConn(t)
	rt := realtime.New(seed)
	rt.StartActors(g.NumNodes(), 1024)
	tr := NewPipeTransport(rt.Post, 1024)
	lt := &liveTestbed{g: g, rt: rt, conn: conn, tr: tr}
	t.Cleanup(lt.shutdown)
	// Construction arms timers and emits install events; run it serialized
	// so nothing fires against a half-built network.
	rt.Exec(func() { lt.net = NewChecked(rt, tr, mgr, cfg, liveChecks(cfg)) })
	return lt
}

// shutdown stops the transport before the runtime (pipes post into
// mailboxes) and is idempotent, so tests can call it explicitly and rely on
// the cleanup as a backstop.
func (lt *liveTestbed) shutdown() {
	lt.tr.Close()
	lt.rt.Stop()
}

// gammaVerdict stops the world and reads the checker: every violation but a
// Γ miss fails t, and the run must have held at least one recovery to the
// bound. Γ misses come back as the error testhost.Retry judges.
func (lt *liveTestbed) gammaVerdict(t *testing.T) error {
	t.Helper()
	lt.shutdown()
	var gamma, other []conformance.Violation
	for _, v := range lt.net.Checker.Finish() {
		if v.Rule == "gamma" {
			gamma = append(gamma, v)
		} else {
			other = append(other, v)
		}
	}
	fail(t, lt.net, other)
	if lt.net.Checker.GammaChecked() == 0 {
		t.Error("no recovery was held to the Γ bound")
	}
	for _, r := range lt.net.Checker.Recoveries() {
		t.Logf("connection %d: Γ %v, bound %v", r.Conn, r.Gamma(), lt.net.Checker.Bound(r))
	}
	if len(gamma) > 0 {
		return fmt.Errorf("%d recoveries over the Γ bound, first %v", len(gamma), gamma[0])
	}
	return nil
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
// fail -> recover -> rejoin cycle over the pipe transport, holds the
// recovery to the §5 Γ bound (plus liveHostAllowance), then shuts the world
// down and checks that every goroutine the runtime and transport started has
// exited. Run under -race this also vouches that all protocol state is
// reached only through the execution lock and that late posts after Stop are
// refused rather than panicking on a closed channel.
func TestLiveRecoveryAndCleanShutdown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(60 * time.Second)
	cfg.RejoinProbeDelay = sim.Duration(25 * time.Millisecond)
	testhost.Retry(t, liveAttempts, liveTolerate, func() error {
		before := goruntime.NumGoroutine()
		lt := newLiveTestbed(t, cfg, 1)

		var startErr error
		lt.exec(func() { startErr = lt.net.StartTraffic(lt.conn.ID, 500) })
		if startErr != nil {
			t.Fatal(startErr)
		}
		lt.waitFor(t, "pre-failure data", 10*time.Second, func() bool {
			return lt.net.Stats().DataDelivered >= 20
		})

		// Fail the primary's last hop; the source must switch to the backup
		// and data arrive on it.
		l := lt.g.LinkBetween(1, 2)
		lt.exec(func() { lt.net.FailLink(l) })
		lt.waitFor(t, "data on the backup", 10*time.Second, func() bool {
			return len(lt.net.Checker.Recoveries()) == 1
		})

		// Repair; the probed rejoin request is held across the outage and
		// the old primary rejoins as a healthy channel.
		lt.exec(func() { lt.net.RepairLink(l) })
		lt.waitFor(t, "rejoin", 10*time.Second, func() bool {
			return lt.net.Stats().Rejoins >= 1
		})

		gammaErr := lt.gammaVerdict(t)

		// A post after Stop must be refused, never panic.
		if lt.rt.Post(0, func() {}) {
			t.Fatal("Post accepted work after Stop")
		}
		// gammaVerdict stopped the world and the cleanup stops it again;
		// make one more explicit stop too.
		lt.shutdown()

		// Every runtime, actor, and pipe goroutine has joined. Poll briefly:
		// a goroutine is still counted for an instant after its
		// WaitGroup.Done.
		limit := time.Now().Add(5 * time.Second)
		for {
			if n := goruntime.NumGoroutine(); n <= before {
				break
			} else if time.Now().After(limit) {
				t.Fatalf("goroutine leak: %d before, %d after shutdown", before, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
		return gammaErr
	})
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
// checks both traces with each testbed's conformance checker,
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
	startTraffic(t, tb.net, 1000, tb.conn)
	tb.eng.At(sim.Time(50*time.Millisecond), func() {
		tb.net.FailLink(tb.g.LinkBetween(1, 2))
	})
	tb.eng.RunFor(400 * time.Millisecond)
	simSeq := stateSequences(simRec.Events)

	// Live leg: same topology, connection, and failure script. Its
	// recovery is held to the Γ bound, so a busy host gets retries.
	var liveSeq map[chanOn][]hop
	testhost.Retry(t, liveAttempts, liveTolerate, func() error {
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
		err := lt.gammaVerdict(t)
		liveSeq = stateSequences(liveRec.Events)
		return err
	})

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

// TestLiveScenarioSimFloor runs the live benchmark's scenario on the
// simulator: a 4x4 mesh at 200 Mbps carrying all 210 ordered pairs between
// nodes other than node 5 (one degree-1 backup each), 8 seeded sources at
// 1,000 msg/s on connections whose primaries cross node 5, and node 5 crashed
// once every source has delivered 10 messages, a seeded fraction of a send
// period after the last 500 us poll. Disruption is crash -> first arrival at
// the destination after the source's switch, as the benchmark measures it on
// the wall clock. With no runtime to wait on, its distribution over 300
// seeds is the protocol's own floor under the live numbers (EXPERIMENTS.md,
// "Live runtime"); the simulated clock makes it exact.
func TestLiveScenarioSimFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("300 simulated crashes")
	}
	const (
		seeds    = 300
		victim   = topology.NodeID(5)
		sources  = 8
		rate     = 1000
		period   = time.Second / rate
		warmMsgs = 10
		poll     = 500 * time.Microsecond
		// The floor EXPERIMENTS.md records.
		wantP50, wantP95 = 2898 * time.Microsecond, 5097 * time.Microsecond
	)
	crosses := func(p topology.Path) bool {
		for _, v := range p.Nodes() {
			if v == victim {
				return true
			}
		}
		return false
	}
	var disruption []time.Duration
	for seed := int64(1); seed <= seeds; seed++ {
		g := topology.NewMesh(4, 4, 200)
		mgr := core.NewManager(g, core.DefaultConfig())
		var crossing []rtchan.ConnID
		for s := 0; s < g.NumNodes(); s++ {
			for d := 0; d < g.NumNodes(); d++ {
				src, dst := topology.NodeID(s), topology.NodeID(d)
				if src == dst || src == victim || dst == victim {
					continue
				}
				c, err := mgr.Establish(src, dst, rtchan.DefaultSpec(), []int{1})
				if err != nil {
					t.Fatalf("establish %d->%d: %v", s, d, err)
				}
				if crosses(c.Primary.Path) {
					crossing = append(crossing, c.ID)
				}
			}
		}
		eng := sim.New(seed)
		cfg := DefaultConfig()
		cfg.DetectionLatency = 0
		net := New(eng, mgr, cfg)
		rng := eng.RNG()
		picked := make([]rtchan.ConnID, 0, sources)
		for _, i := range rng.Perm(len(crossing))[:sources] {
			picked = append(picked, crossing[i])
			if err := net.StartTraffic(crossing[i], rate); err != nil {
				t.Fatal(err)
			}
		}
		runUntil := func(limit time.Duration, cond func() bool) bool {
			for end := eng.Now().Add(limit); !cond(); eng.RunFor(poll) {
				if eng.Now() >= end {
					return false
				}
			}
			return true
		}
		if !runUntil(time.Second, func() bool {
			for _, c := range picked {
				if len(net.SinkArrivals(c)) < warmMsgs {
					return false
				}
			}
			return true
		}) {
			t.Fatalf("seed %d: sources did not warm up", seed)
		}
		eng.RunFor(time.Duration(rng.Int63n(int64(period))))
		failAt := eng.Now()
		net.FailNode(victim)
		arrive := make([]sim.Time, len(picked))
		if !runUntil(time.Second, func() bool {
			for i, c := range picked {
				sw := net.SourceSwitches(c)
				if len(sw) == 0 {
					return false
				}
				arr := net.SinkArrivals(c)
				j := sort.Search(len(arr), func(j int) bool { return arr[j] >= sw[0] })
				if j == len(arr) {
					return false
				}
				arrive[i] = arr[j]
			}
			return true
		}) {
			t.Fatalf("seed %d: not every source resumed", seed)
		}
		for _, at := range arrive {
			disruption = append(disruption, at.Sub(failAt))
		}
	}
	sort.Slice(disruption, func(i, j int) bool { return disruption[i] < disruption[j] })
	n := len(disruption)
	p50, p95 := disruption[n/2].Round(time.Microsecond), disruption[n*95/100].Round(time.Microsecond)
	t.Logf("disruption over %d sources: p50 %v, p95 %v, max %v", n, p50, p95, disruption[n-1])
	if p50 != wantP50 || p95 != wantP95 {
		t.Errorf("simulated floor p50 %v, p95 %v; EXPERIMENTS.md records %v, %v", p50, p95, wantP50, wantP95)
	}
}
