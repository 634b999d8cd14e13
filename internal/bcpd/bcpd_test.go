package bcpd

import (
	"slices"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/runtime"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// newChecked is NewChecked under test: at cleanup the test fails on every
// violation the checker found, with the flight recorder's last events before
// the first one in the log.
func newChecked(t *testing.T, rt runtime.Runtime, tr Transport, mgr *core.Manager, cfg Config, adjust func(*conformance.Params)) *Checked {
	t.Helper()
	c := NewChecked(rt, tr, mgr, cfg, adjust)
	t.Cleanup(func() { verdict(t, c) })
	return c
}

// verdict fails t on every violation c's checker found and logs the last
// ReportTail recorded events up to the first one.
func verdict(t *testing.T, c *Checked) { fail(t, c, c.Checker.Finish()) }

// fail fails t on each of vs, c's violations, and logs the last ReportTail
// recorded events up to the first.
func fail(t *testing.T, c *Checked, vs []conformance.Violation) {
	for _, v := range vs {
		t.Errorf("conformance: %v", v)
	}
	if len(vs) > 0 {
		fl := c.Flight(vs)
		for _, ev := range fl[max(len(fl)-ReportTail, 0):] {
			t.Logf("flight: %v", ev)
		}
	}
}

// testbed is a 3x3 mesh with one D-connection 0->2 (primary 0-1-2, backup
// 0-3-4-5-2) plus helpers.
//
//	0 1 2
//	3 4 5
//	6 7 8
type testbed struct {
	g    *topology.Graph
	eng  *sim.Engine
	mgr  *core.Manager
	net  *Checked
	conn *core.DConnection
}

func path(t *testing.T, g *topology.Graph, nodes ...topology.NodeID) topology.Path {
	t.Helper()
	p, err := topology.PathBetween(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// establish sets up one connection on explicit routes, failing t if the
// resource plane refuses it.
func establish(t *testing.T, mgr *core.Manager, spec rtchan.TrafficSpec, primary topology.Path, backups []topology.Path, degrees ...int) *core.DConnection {
	t.Helper()
	c, err := mgr.EstablishOnPaths(spec, primary, backups, degrees)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testbedConn establishes the testbed's connection on a fresh mesh.
func testbedConn(t *testing.T) (*topology.Graph, *core.Manager, *core.DConnection) {
	t.Helper()
	g := topology.NewMesh(3, 3, testbedMbps)
	mgr := core.NewManager(g, core.DefaultConfig())
	conn := establish(t, mgr, rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2},
		path(t, g, 0, 1, 2), []topology.Path{path(t, g, 0, 3, 4, 5, 2)}, 1)
	return g, mgr, conn
}

// startTraffic starts each connection's source at rate messages/second.
func startTraffic(t *testing.T, net *Checked, rate float64, conns ...*core.DConnection) {
	t.Helper()
	for _, c := range conns {
		if err := net.StartTraffic(c.ID, rate); err != nil {
			t.Fatal(err)
		}
	}
}

func newTestbed(t *testing.T, cfg Config) *testbed {
	t.Helper()
	return newTestbedOn(t, NewSimTransport(), cfg, nil)
}

// testbedMbps is the testbed's link capacity.
const testbedMbps = 10

// newTestbedOn is newTestbed over a given transport, under caller-adjusted
// checker tolerances.
func newTestbedOn(t *testing.T, tr Transport, cfg Config, adjust func(*conformance.Params)) *testbed {
	t.Helper()
	g, mgr, conn := testbedConn(t)
	eng := sim.New(1)
	return &testbed{g: g, eng: eng, mgr: mgr, net: newChecked(t, eng, tr, mgr, cfg, adjust), conn: conn}
}

func TestInstallSeedsChannelStates(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	prim := tb.conn.Primary
	back := tb.conn.Backups[0]
	for _, v := range prim.Path.Nodes() {
		if st := tb.net.nodes[v].State(prim.ID); st != stateP {
			t.Fatalf("node %d primary state = %v", v, st)
		}
	}
	for _, v := range back.Path.Nodes() {
		if st := tb.net.nodes[v].State(back.ID); st != stateB {
			t.Fatalf("node %d backup state = %v", v, st)
		}
	}
}

func TestDataFlowsBeforeFailure(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	startTraffic(t, tb.net, 1000, tb.conn)
	tb.eng.RunFor(100 * time.Millisecond)
	st := tb.net.Stats()
	if st.DataDelivered < 90 {
		t.Fatalf("delivered %d, want ~100", st.DataDelivered)
	}
	if st.DataDropped != 0 {
		t.Fatalf("dropped %d before any failure", st.DataDropped)
	}
}

func TestLinkFailureFastRecovery(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	startTraffic(t, tb.net, 1000, tb.conn)
	failAt := sim.Time(50 * time.Millisecond)
	var failed topology.LinkID
	tb.eng.At(failAt, func() {
		failed = tb.g.LinkBetween(1, 2)
		tb.net.FailLink(failed)
	})
	tb.eng.RunFor(500 * time.Millisecond)

	// The source must have switched to the backup.
	switches := tb.net.SourceSwitches(tb.conn.ID)
	if len(switches) != 1 {
		t.Fatalf("switches = %v", switches)
	}
	if switches[0] < failAt {
		t.Fatal("switched before the failure")
	}
	// Recovery is fast: detection + reporting over 2 hops of RCC.
	if delay := switches[0].Sub(failAt); delay > 50*time.Millisecond {
		t.Fatalf("recovery delay %v too large", delay)
	}
	// The testbed's checker compared it against the §5 bound.
	if got := tb.net.Checker.GammaChecked(); got != 1 {
		t.Fatalf("GammaChecked = %d, want 1", got)
	}
	// The backup is promoted in the resource plane.
	if tb.conn.Primary == nil || tb.conn.Primary.Path.Hops() != 4 {
		t.Fatal("backup not promoted")
	}
	if len(tb.conn.Backups) != 0 {
		t.Fatal("backup list not consumed")
	}
	// Data resumed on the backup at the destination; loss is bounded by the
	// outage.
	if got := len(tb.net.Checker.Recoveries()); got != 1 {
		t.Fatalf("recoveries closed by data on the backup = %d, want 1", got)
	}
	st := tb.net.Stats()
	if st.DataDropped == 0 {
		t.Fatal("expected some loss during the outage (Figure 8)")
	}
	if st.DataDelivered < 300 {
		t.Fatalf("delivered %d, service did not resume properly", st.DataDelivered)
	}
	// Spare pools on the promoted path converted to dedicated bandwidth.
	for _, l := range tb.conn.Primary.Path.Links() {
		if tb.mgr.Network().Dedicated(l) != 1 {
			t.Fatalf("link %d dedicated = %g", l, tb.mgr.Network().Dedicated(l))
		}
	}
	if err := tb.mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeFailureFastRecovery(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	startTraffic(t, tb.net, 1000, tb.conn)
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailNode(1) })
	tb.eng.RunFor(500 * time.Millisecond)
	if got := len(tb.net.SourceSwitches(tb.conn.ID)); got != 1 {
		t.Fatalf("switches = %d", got)
	}
	if tb.conn.Primary == nil || tb.conn.Primary.Path.ContainsNode(1) {
		t.Fatal("recovered primary still uses the failed node")
	}
}

func TestFailureOfBackupOnlyIsBookkept(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.net.FailLink(tb.g.LinkBetween(3, 4)) // backup link
	tb.eng.RunFor(200 * time.Millisecond)
	// No switch: the primary is healthy.
	if tb.conn.Primary.Path.Hops() != 2 {
		t.Fatal("primary changed")
	}
	// End nodes know the backup failed.
	back := tb.conn.Backups[0]
	if r, i := tb.net.nodes[0].hop(back.ID); r.state(i) == stateN || !r.hops[i].failed {
		t.Fatal("source does not know the backup failed")
	}
	if st := tb.net.nodes[2].State(back.ID); st != stateU {
		t.Fatalf("destination backup state = %v", st)
	}
}

func TestDoubleFailureUnrecoverable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(200 * time.Millisecond)
	tb := newTestbed(t, cfg)
	startTraffic(t, tb.net, 1000, tb.conn)
	tb.eng.At(sim.Time(50*time.Millisecond), func() {
		tb.net.FailLink(tb.g.LinkBetween(1, 2))
		tb.net.FailLink(tb.g.LinkBetween(4, 5))
	})
	tb.eng.RunFor(2 * time.Second)
	// The source may transiently switch to the backup before its failure
	// report arrives (the paper's "albeit unlikely" race, §4.2), but no
	// data flows afterwards and nothing recovers.
	if n := len(tb.net.SourceSwitches(tb.conn.ID)); n > 1 {
		t.Fatalf("switched %d times despite both channels dead", n)
	}
	// Rejoin timers expired: all resources reclaimed.
	if tb.mgr.Connection(tb.conn.ID) != nil {
		t.Fatal("dead connection still registered")
	}
	for _, l := range tb.g.Links() {
		if tb.mgr.Network().Dedicated(l.ID) != 0 || tb.mgr.Network().Spare(l.ID) != 0 {
			t.Fatalf("link %d not reclaimed", l.ID)
		}
	}
}

func TestSequentialFailuresWithTwoBackups(t *testing.T) {
	g := topology.NewMesh(3, 4, 10)
	//  0 1  2  3
	//  4 5  6  7
	//  8 9 10 11
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 4}
	conn := establish(t, mgr, spec, path(t, g, 1, 2), []topology.Path{path(t, g, 1, 5, 6, 2), path(t, g, 1, 0, 4, 8, 9, 10, 6, 2)}, 1, 1)
	cfg := DefaultConfig()
	net := newChecked(t, eng, NewSimTransport(), mgr, cfg, nil)
	startTraffic(t, net, 1000, conn)
	eng.At(sim.Time(50*time.Millisecond), func() { net.FailLink(g.LinkBetween(1, 2)) })
	eng.At(sim.Time(300*time.Millisecond), func() { net.FailLink(g.LinkBetween(5, 6)) })
	eng.RunFor(2 * time.Second)
	switches := net.SourceSwitches(conn.ID)
	if len(switches) != 2 {
		t.Fatalf("switches = %v, want 2 (backup1 then backup2)", switches)
	}
	if conn.Primary == nil || conn.Primary.Path.Hops() != 7 {
		t.Fatalf("final primary = %v", conn.Primary)
	}
	if got := len(net.Checker.Recoveries()); got != 2 {
		t.Fatalf("recoveries closed by data on a backup = %d, want 2", got)
	}
}

func TestReplenishRestoresFaultTolerance(t *testing.T) {
	// §4.4: after recovery the connection re-establishes a fresh backup, so
	// a SECOND failure later is also survived fast.
	g := topology.NewTorus(4, 4, 200)
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	conn, err := mgr.Establish(0, 5, rtchan.DefaultSpec(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ReplenishDelay = sim.Duration(100 * time.Millisecond)
	net := newChecked(t, eng, NewSimTransport(), mgr, cfg, nil)
	startTraffic(t, net, 1000, conn)
	eng.At(sim.Time(50*time.Millisecond), func() {
		net.FailLink(conn.Primary.Path.Links()[0])
	})
	// After recovery + replenishment, fail the new primary too.
	eng.At(sim.Time(500*time.Millisecond), func() {
		if conn.Primary != nil {
			net.FailLink(conn.Primary.Path.Links()[0])
		}
	})
	eng.RunFor(2 * time.Second)

	if net.Stats().BackupsReplenished == 0 {
		t.Fatal("no backup was replenished")
	}
	switches := net.SourceSwitches(conn.ID)
	if len(switches) != 2 {
		t.Fatalf("switches = %v, want 2 (second failure survived via replenished backup)", switches)
	}
	if conn.Primary == nil {
		t.Fatal("connection lost")
	}
	if got := len(net.Checker.Recoveries()); got != 2 {
		t.Fatalf("recoveries closed by data on a backup = %d, want 2", got)
	}
	if err := mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplacementBackupsKeepTheDegree holds both ways a connection whose
// only backup was promoted gets a backup back to the degree the connection
// was configured with, not 1: the backup replenishment establishes, and the
// old primary when its repaired link lets it rejoin.
func TestReplacementBackupsKeepTheDegree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		repair bool
	}{{"replenished", false}, {"rejoined", true}} {
		t.Run(tc.name, func(t *testing.T) {
			g := topology.NewTorus(4, 4, 200)
			eng := sim.New(1)
			mgr := core.NewManager(g, core.DefaultConfig())
			conn, err := mgr.Establish(0, 5, rtchan.DefaultSpec(), []int{3})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			if !tc.repair {
				cfg.ReplenishDelay = sim.Duration(100 * time.Millisecond)
			}
			net := newChecked(t, eng, NewSimTransport(), mgr, cfg, nil)
			old := conn.Primary
			l := old.Path.Links()[0]
			eng.At(sim.Time(50*time.Millisecond), func() { net.FailLink(l) })
			if tc.repair {
				eng.At(sim.Time(80*time.Millisecond), func() { net.RepairLink(l) })
			}
			eng.RunFor(time.Second)

			st := net.Stats()
			if st.BackupsReplenished+st.Rejoins != 1 || len(conn.Backups) != 1 || conn.Primary == old {
				t.Fatalf("%d replenished, %d rejoined, %d backups: want the backup promoted and one replacement",
					st.BackupsReplenished, st.Rejoins, len(conn.Backups))
			}
			if got := conn.Backups[0] == old; got != tc.repair {
				t.Fatalf("replacement is the old primary: %v, want %v", got, tc.repair)
			}
			if !slices.Equal(conn.Degrees, []int{3}) || mgr.DegreeOf(conn.Backups[0].ID) != 3 {
				t.Fatalf("replacement degrees %v, DegreeOf %d: want the configured 3", conn.Degrees, mgr.DegreeOf(conn.Backups[0].ID))
			}
			if err := mgr.CheckMuxInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReplenishDisabledByDefault(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.eng.At(sim.Time(50*time.Millisecond), func() {
		tb.net.FailLink(tb.g.LinkBetween(1, 2))
	})
	tb.eng.RunFor(time.Second)
	if tb.net.Stats().BackupsReplenished != 0 {
		t.Fatal("replenishment ran despite being disabled")
	}
	if len(tb.conn.Backups) != 0 {
		t.Fatal("backup list should stay consumed")
	}
}

func TestDivergentBackupSelectionConverges(t *testing.T) {
	// Paper footnote 7: the two end nodes can transiently pick different
	// backups when their knowledge differs. Here the primary and the first
	// backup's destination-adjacent link fail together: the destination
	// learns of backup 1's death immediately (it is adjacent) and activates
	// backup 2, while the source — not yet knowing — activates backup 1.
	// Backup 1's activation dies at the failed link; backup 2's backward
	// activation reaches the source, which switches to it. The system
	// converges on backup 2 with no double promotion.
	g := topology.NewMesh(3, 4, 10)
	//  0 1  2  3
	//  4 5  6  7
	//  8 9 10 11
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 4}
	conn := establish(t, mgr, spec, path(t, g, 1, 2), []topology.Path{path(t, g, 1, 5, 6, 2), path(t, g, 1, 0, 4, 8, 9, 10, 11, 7, 3, 2)}, 1, 1)
	cfg := DefaultConfig()
	net := newChecked(t, eng, NewSimTransport(), mgr, cfg, nil)
	startTraffic(t, net, 1000, conn)
	eng.At(sim.Time(50*time.Millisecond), func() {
		net.FailLink(g.LinkBetween(1, 2)) // primary
		net.FailLink(g.LinkBetween(6, 2)) // backup 1's last link
	})
	eng.RunFor(2 * time.Second)

	if conn.Primary == nil || conn.Primary.Path.Hops() != 9 {
		t.Fatalf("converged primary = %v, want backup 2", conn.Primary)
	}
	// The source may have switched twice (transiently to backup 1).
	switches := net.SourceSwitches(conn.ID)
	if len(switches) == 0 || len(switches) > 2 {
		t.Fatalf("switches = %v", switches)
	}
	// Data flows on backup 2 after convergence: one recovery, however many
	// switches it took.
	if got := len(net.Checker.Recoveries()); got != 1 {
		t.Fatalf("recoveries closed by data on a backup = %d, want 1", got)
	}
	if err := mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Network().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScheme1RecoversViaDestination(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = Scheme1
	tb := newTestbed(t, cfg)
	startTraffic(t, tb.net, 1000, tb.conn)
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(tb.g.LinkBetween(0, 1)) })
	tb.eng.RunFor(time.Second)
	if len(tb.net.SourceSwitches(tb.conn.ID)) != 1 {
		t.Fatal("scheme 1 did not recover")
	}
	if tb.conn.Primary == nil || tb.conn.Primary.Path.Hops() != 4 {
		t.Fatal("backup not promoted under scheme 1")
	}
}

func TestScheme3FasterThanScheme1NearDestination(t *testing.T) {
	// A failure near the destination: scheme 1's report has a short trip to
	// the destination, but the activation must then travel the whole backup
	// back to the source before data resumes. Scheme 3's upstream report
	// reaches the source directly and data resumes immediately.
	recoveryDelay := func(scheme Scheme) sim.Duration {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		tb := newTestbed(t, cfg)
		startTraffic(t, tb.net, 1000, tb.conn)
		failAt := sim.Time(50 * time.Millisecond)
		tb.eng.At(failAt, func() { tb.net.FailLink(tb.g.LinkBetween(1, 2)) })
		tb.eng.RunFor(time.Second)
		sw := tb.net.SourceSwitches(tb.conn.ID)
		if len(sw) != 1 {
			t.Fatalf("scheme %d: switches = %v", scheme, sw)
		}
		return sw[0].Sub(failAt)
	}
	d1 := recoveryDelay(Scheme1)
	d3 := recoveryDelay(Scheme3)
	if d3 >= d1 {
		t.Fatalf("scheme 3 (%v) not faster than scheme 1 (%v)", d3, d1)
	}
}

func TestMuxFailureTriggersNextBackup(t *testing.T) {
	// Two connections whose primaries share link 1->2 with backups
	// multiplexed on 5->6 (shared spare = 1). On failure, the loser's
	// activation hits a multiplexing failure and falls back to its second
	// backup.
	g := topology.NewMesh(4, 4, 10)
	//  0  1  2  3
	//  4  5  6  7
	//  8  9 10 11
	// 12 13 14 15
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 4}
	connA := establish(t, mgr, spec, path(t, g, 1, 2, 3), []topology.Path{path(t, g, 1, 5, 6, 7, 3)}, 8)
	connB := establish(t, mgr, spec, path(t, g, 1, 2, 6), []topology.Path{path(t, g, 1, 5, 6), path(t, g, 1, 0, 4, 8, 9, 10, 6)}, 8, 8)
	if got := mgr.Network().Spare(g.LinkBetween(5, 6)); got != 1 {
		t.Fatalf("spare on 5->6 = %g, want 1 (multiplexed)", got)
	}
	cfg := DefaultConfig()
	rec := &trace.Recorder{}
	cfg.Sink = rec
	net := newChecked(t, eng, NewSimTransport(), mgr, cfg, nil)
	startTraffic(t, net, 500, connA, connB)
	eng.At(sim.Time(50*time.Millisecond), func() { net.FailLink(g.LinkBetween(1, 2)) })
	eng.RunFor(2 * time.Second)

	if net.Stats().MuxFailures == 0 {
		t.Fatal("no multiplexing failure despite contention")
	}
	if got, want := len(muxFailures(rec.Events)), net.Stats().MuxFailures; uint64(got) != want {
		t.Fatalf("%d mux failures on the stream, %d counted", got, want)
	}
	// Both connections end up recovered: A on its only backup, B on one of
	// its two (whichever won the race decides the loser's fallback).
	if connA.Primary == nil {
		t.Fatal("connection A lost")
	}
	if connB.Primary == nil {
		t.Fatal("connection B lost")
	}
	if len(net.SourceSwitches(connA.ID)) == 0 || len(net.SourceSwitches(connB.ID)) == 0 {
		t.Fatal("sources did not switch")
	}
	if err := mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRejoinRepairsChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(2 * time.Second)
	cfg.RejoinProbeDelay = sim.Duration(300 * time.Millisecond)
	tb := newTestbed(t, cfg)
	l := tb.g.LinkBetween(1, 2)
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(l) })
	// Repair before the probe goes out.
	tb.eng.At(sim.Time(200*time.Millisecond), func() { tb.net.RepairLink(l) })
	tb.eng.RunFor(3 * time.Second)

	if tb.net.Stats().Rejoins == 0 {
		t.Fatal("no rejoin happened")
	}
	// The old primary was repaired and rejoined as a backup; the original
	// backup was promoted to primary.
	conn := tb.mgr.Connection(tb.conn.ID)
	if conn == nil {
		t.Fatal("connection gone")
	}
	if conn.Primary == nil || conn.Primary.Path.Hops() != 4 {
		t.Fatal("promoted backup is not the primary")
	}
	if len(conn.Backups) != 1 || conn.Backups[0].Path.Hops() != 2 {
		t.Fatalf("repaired channel not registered as backup: %+v", conn.Backups)
	}
	// All nodes of the repaired channel hold state B.
	for _, v := range conn.Backups[0].Path.Nodes() {
		if st := tb.net.nodes[v].State(conn.Backups[0].ID); st != stateB {
			t.Fatalf("node %d state = %v, want B", v, st)
		}
	}
	if err := tb.mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRejoinTimerExpiryTearsDown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(300 * time.Millisecond)
	tb := newTestbed(t, cfg)
	old := tb.conn.Primary.ID
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(tb.g.LinkBetween(1, 2)) })
	tb.eng.RunFor(2 * time.Second)
	if tb.mgr.Network().Channel(old) != nil {
		t.Fatal("failed primary not torn down after rejoin expiry")
	}
	if tb.net.Stats().RejoinExpiries == 0 {
		t.Fatal("no expiry recorded")
	}
	// Connection survives on the promoted backup.
	conn := tb.mgr.Connection(tb.conn.ID)
	if conn == nil || conn.Primary == nil {
		t.Fatal("connection should survive on its promoted backup")
	}
}

func TestClosureUndoesPartialRejoin(t *testing.T) {
	// Figure 6: a rejoin message arriving at a node whose timer already
	// expired triggers a channel-closure toward the destination.
	tb := newTestbed(t, DefaultConfig())
	prim := tb.conn.Primary
	d1 := tb.net.nodes[1]
	// Simulate: node 1 in state N (expired), delivering a rejoin.
	r, i := d1.hop(prim.ID)
	d1.setState(r, i, stateN)
	d1.handleControl(wireControl{
		Type: 4 /* MsgRejoin */, Channel: int64(prim.ID), Origin: 2, Toward: -1,
	})
	tb.eng.RunFor(time.Second)
	if tb.net.Stats().Closures == 0 {
		t.Fatal("no closure generated")
	}
	// The closure propagated toward the destination: node 2's state is N.
	if st := tb.net.nodes[2].State(prim.ID); st != stateN {
		t.Fatalf("destination state = %v, want N", st)
	}
}

func TestTeardownConnectionPropagatesClosure(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	startTraffic(t, tb.net, 1000, tb.conn)
	prim := tb.conn.Primary
	back := tb.conn.Backups[0]
	tb.eng.RunFor(50 * time.Millisecond)
	if err := tb.net.TeardownConnection(tb.conn.ID); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunFor(200 * time.Millisecond)
	// Resource plane is clean.
	if tb.mgr.Connection(tb.conn.ID) != nil {
		t.Fatal("connection still registered")
	}
	for _, l := range tb.g.Links() {
		if tb.mgr.Network().Dedicated(l.ID) != 0 || tb.mgr.Network().Spare(l.ID) != 0 {
			t.Fatalf("link %d not released", l.ID)
		}
	}
	// Closure reached every node of both channels: all state N.
	for _, ch := range []*rtchan.Channel{prim, back} {
		for _, v := range ch.Path.Nodes() {
			if st := tb.net.nodes[v].State(ch.ID); st != stateN {
				t.Fatalf("node %d channel %d state %v after closure", v, ch.ID, st)
			}
		}
	}
	// The data source stopped.
	sent := tb.net.Stats().DataSent
	tb.eng.RunFor(100 * time.Millisecond)
	if tb.net.Stats().DataSent != sent {
		t.Fatal("source kept emitting after teardown")
	}
	if err := tb.net.TeardownConnection(tb.conn.ID); err == nil {
		t.Fatal("double teardown accepted")
	}
}

// TestTeardownConnectionWithoutPrimary tears down a connection the daemons
// left without a primary, in the two ways they leave one: a rejoin expiry or
// an abandoned rejoin drops the failed primary (TeardownChannel), and a
// repaired primary that no activation replaced rejoins as a backup
// (RestoreAsBackup). The backups still get their closures and the links
// come back clean.
func TestTeardownConnectionWithoutPrimary(t *testing.T) {
	for _, c := range []struct {
		name  string
		strip func(tb *testbed) error
	}{
		{"primary dropped", func(tb *testbed) error {
			return tb.mgr.TeardownChannel(tb.conn.ID, tb.conn.Primary.ID)
		}},
		{"primary rejoined as a backup", func(tb *testbed) error {
			return tb.mgr.RestoreAsBackup(tb.conn.ID, tb.conn.Primary.ID, tb.conn.ReplacementDegree())
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbed(t, DefaultConfig())
			if err := c.strip(tb); err != nil {
				t.Fatal(err)
			}
			conn := tb.mgr.Connection(tb.conn.ID)
			if conn == nil || conn.Primary != nil || len(conn.Backups) == 0 {
				t.Fatalf("connection after %s: %+v", c.name, conn)
			}
			backups := slices.Clone(conn.Backups)
			if err := tb.net.TeardownConnection(tb.conn.ID); err != nil {
				t.Fatal(err)
			}
			tb.eng.RunFor(200 * time.Millisecond)
			if tb.mgr.Connection(tb.conn.ID) != nil {
				t.Fatal("connection still registered")
			}
			for _, l := range tb.g.Links() {
				if tb.mgr.Network().Dedicated(l.ID) != 0 || tb.mgr.Network().Spare(l.ID) != 0 {
					t.Fatalf("link %d not released", l.ID)
				}
			}
			for _, ch := range backups {
				for _, v := range ch.Path.Nodes() {
					if st := tb.net.nodes[v].State(ch.ID); st != stateN {
						t.Fatalf("node %d channel %d state %v after closure", v, ch.ID, st)
					}
				}
			}
		})
	}
}

func TestReportsAreDedupedInStateU(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	prim := tb.conn.Primary
	d1 := tb.net.nodes[1]
	before := tb.net.Stats().ReportsGenerated
	d1.originateFailureReport(prim.ID, -1)
	d1.originateFailureReport(prim.ID, -1)
	d1.originateFailureReport(prim.ID, -1)
	tb.eng.RunFor(100 * time.Millisecond)
	if got := tb.net.Stats().ReportsGenerated - before; got != 3 {
		t.Fatalf("reports generated = %d", got)
	}
	if st := d1.State(prim.ID); st != stateU {
		t.Fatalf("state = %v", st)
	}
	// Only one switch at the source despite three reports.
	if tb.conn.Primary == nil || tb.conn.Primary.Path.Hops() != 4 {
		t.Fatal("no single recovery")
	}
}

func TestRejoinRequestHeldAcrossRepair(t *testing.T) {
	// The probe goes out while the link is still down; the RCC holds it
	// (hop-by-hop retransmission) and delivers it when the link heals —
	// the paper's "the failed component... will also forward the
	// rejoin-request message" semantics.
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(2 * time.Second)
	cfg.RejoinProbeDelay = sim.Duration(100 * time.Millisecond) // before repair
	tb := newTestbed(t, cfg)
	l := tb.g.LinkBetween(1, 2)
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(l) })
	tb.eng.At(sim.Time(500*time.Millisecond), func() { tb.net.RepairLink(l) })
	tb.eng.RunFor(3 * time.Second)
	if tb.net.Stats().Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1 (request held until repair)", tb.net.Stats().Rejoins)
	}
	if tb.net.Stats().RejoinExpiries != 0 {
		t.Fatalf("expiries = %d, the repaired channel should not expire", tb.net.Stats().RejoinExpiries)
	}
	conn := tb.mgr.Connection(tb.conn.ID)
	if conn == nil || len(conn.Backups) != 1 || conn.Backups[0].Path.Hops() != 2 {
		t.Fatal("repaired primary did not rejoin as a backup")
	}
}

func TestRepairAfterExpiryIsClean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(100 * time.Millisecond)
	cfg.RejoinProbeDelay = sim.Duration(400 * time.Millisecond) // probe after expiry
	tb := newTestbed(t, cfg)
	l := tb.g.LinkBetween(1, 2)
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(l) })
	tb.eng.At(sim.Time(300*time.Millisecond), func() { tb.net.RepairLink(l) })
	tb.eng.RunFor(2 * time.Second)
	// The probe found the channel already expired locally: no rejoin.
	if tb.net.Stats().Rejoins != 0 {
		t.Fatal("rejoin happened after expiry")
	}
	if tb.mgr.Network().Channel(tb.conn.Primary.ID) == nil {
		t.Fatal("promoted backup should exist")
	}
}
