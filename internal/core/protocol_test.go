package core

import (
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

func TestClaimSpareForIdempotent(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	b := conn.Backups[0]
	l := b.Path.Links()[0]
	claim := func(ch rtchan.ChannelID) bool {
		_, ok := m.ClaimSpareFor(l, ch, 1, false)
		return ok
	}
	release := func(ch rtchan.ChannelID) { m.ReleaseClaimBatch([]topology.LinkID{l}, ch) }
	if !claim(b.ID) {
		t.Fatal("first claim failed")
	}
	// Idempotent: the same channel claiming again succeeds without drawing
	// more from the pool.
	if !claim(b.ID) {
		t.Fatal("repeat claim failed")
	}
	if !claimedOn(m, l, b.ID) {
		t.Fatal("claim not recorded")
	}
	// Pool is size 1: a different channel cannot claim.
	if claim(999) {
		t.Fatal("overdraw accepted")
	}
	release(b.ID)
	if claimedOn(m, l, b.ID) {
		t.Fatal("release did not clear the claim")
	}
	if !claim(999) {
		t.Fatal("pool not restored after release")
	}
	release(999)
	// Releasing a non-existent claim is a no-op.
	release(12345)
}

func TestActivateClaimedPromotes(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	b := conn.Backups[0]
	for _, l := range b.Path.Links() {
		if _, ok := m.ClaimSpareFor(l, b.ID, 1, false); !ok {
			t.Fatal("claim failed")
		}
	}
	if err := m.ActivateClaimed(conn.ID, b); err != nil {
		t.Fatal(err)
	}
	if conn.Primary == nil || conn.Primary.ID != b.ID {
		t.Fatal("backup not promoted")
	}
	for _, l := range b.Path.Links() {
		if m.plan.net.Dedicated(l) != 1 || m.plan.net.Spare(l) != 0 {
			t.Fatalf("link %d accounts wrong after promotion", l)
		}
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	// Unknown connection errors.
	if err := m.ActivateClaimed(12345, b); err == nil {
		t.Fatal("unknown connection accepted")
	}
}

func TestActivateClaimedWithoutClaimsStillWorks(t *testing.T) {
	// The meeting-node race can leave a link unclaimed; ActivateClaimed
	// claims it on the spot when spare allows.
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ActivateClaimed(conn.ID, conn.Backups[0]); err != nil {
		t.Fatal(err)
	}
	if conn.Primary.Path.Hops() != 4 {
		t.Fatal("not promoted")
	}
}

func TestTeardownChannelSingle(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	b := conn.Backups[0]
	if err := m.TeardownChannel(conn.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) != 0 {
		t.Fatal("backup list not updated")
	}
	for _, l := range b.Path.Links() {
		if m.plan.net.Spare(l) != 0 {
			t.Fatalf("spare not reclaimed on link %d", l)
		}
	}
	// Idempotent on an already-gone channel.
	if err := m.TeardownChannel(conn.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	// Tearing down the primary leaves a primary-less connection; tearing
	// down everything deletes it.
	if err := m.TeardownChannel(conn.ID, conn.Primary.ID); err != nil {
		t.Fatal(err)
	}
	if m.Connection(conn.ID) != nil {
		t.Fatal("empty connection not deleted")
	}
}

func TestRestoreAsBackupFromBackup(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	b := conn.Backups[0]
	// Remove it from the mux engine (as a failure would), then restore.
	m.removeBackup(b)
	conn.Backups = nil
	conn.Degrees = nil
	if err := m.RestoreAsBackup(conn.ID, b.ID, 2); err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) != 1 || conn.Degrees[0] != 2 {
		t.Fatalf("restore bookkeeping wrong: %v %v", conn.Backups, conn.Degrees)
	}
	if m.plan.net.Spare(b.Path.Links()[0]) != 1 {
		t.Fatal("spare not re-reserved")
	}
	// Restoring again is a no-op.
	if err := m.RestoreAsBackup(conn.ID, b.ID, 2); err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) != 1 {
		t.Fatal("duplicate restore")
	}
}

func TestRestoreAsBackupDemotesPrimary(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	oldPrimary := conn.Primary
	// Promote the backup (recovery), then rejoin the old primary.
	if err := m.ActivateClaimed(conn.ID, conn.Backups[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreAsBackup(conn.ID, oldPrimary.ID, 3); err != nil {
		t.Fatal(err)
	}
	if oldPrimary.Role != rtchan.RoleBackup {
		t.Fatal("old primary not demoted")
	}
	for _, l := range oldPrimary.Path.Links() {
		if m.plan.net.Dedicated(l) != 0 {
			t.Fatalf("dedicated bandwidth not released on link %d", l)
		}
		if m.plan.net.Spare(l) != 1 {
			t.Fatalf("spare not reserved for the rejoined backup on link %d", l)
		}
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptClaimOrdering: three backups multiplexed on one unit of spare,
// registered at degrees 8, 7 and 7. The degree-7 backup preempts the
// degree-8 holder; neither a lower nor an equal priority then preempts it,
// and every refused claim is one multiplexing failure on the stream, naming
// the link and the 1 Mbps shortfall.
func TestPreemptClaimOrdering(t *testing.T) {
	g := topology.NewTorus(4, 4, 10)
	m := newTestManager(g)
	var bs [3]*rtchan.Channel
	for i, c := range []struct {
		primary, backup []topology.NodeID
		degree          int
	}{
		{[]topology.NodeID{0, 1, 2}, []topology.NodeID{0, 4, 5, 6, 2}, 8},
		{[]topology.NodeID{8, 9, 10}, []topology.NodeID{8, 4, 5, 6, 10}, 7},
		{[]topology.NodeID{4, 7, 6}, []topology.NodeID{4, 5, 6}, 7},
	} {
		conn, err := m.EstablishOnPaths(spec1(), torusPath(t, g, c.primary...),
			[]topology.Path{torusPath(t, g, c.backup...)}, []int{c.degree})
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = conn.Backups[0]
	}
	l := g.LinkBetween(4, 5)
	if got := m.plan.net.Spare(l); got != 1 {
		t.Fatalf("spare on the contended link = %g, want 1 (multiplexed)", got)
	}
	rec := &trace.Recorder{}
	m.SetProtocolTrace(rec, sim.New(1))
	low, high, peer := bs[0], bs[1], bs[2]
	if _, ok := m.ClaimSpareFor(l, low.ID, 1, false); !ok {
		t.Fatal("claim failed")
	}
	// Without preemption a higher priority fails like any other claim.
	if _, ok := m.ClaimSpareFor(l, high.ID, 1, false); ok {
		t.Fatal("overdraw accepted")
	}
	// Higher priority (degree 7) preempts the degree-8 holder.
	victim, ok := m.ClaimSpareFor(l, high.ID, 1, true)
	if !ok || victim != low.ID {
		t.Fatalf("preempt: victim=%d ok=%v", victim, ok)
	}
	if !claimedOn(m, l, high.ID) || claimedOn(m, l, low.ID) {
		t.Fatal("claims not transferred")
	}
	// Lower or equal priority cannot preempt.
	if _, ok := m.ClaimSpareFor(l, low.ID, 1, true); ok {
		t.Fatal("lower priority preempted a higher one")
	}
	if _, ok := m.ClaimSpareFor(l, peer.ID, 1, true); ok {
		t.Fatal("equal priority preempted")
	}
	type ev struct {
		kind trace.Kind
		ch   rtchan.ChannelID
		aux  int64
	}
	want := []ev{
		{trace.KindClaim, low.ID, 0},
		{trace.KindMuxFailure, high.ID, 1000},
		{trace.KindClaimRelease, low.ID, 0},
		{trace.KindClaim, high.ID, 0},
		{trace.KindPreempt, high.ID, int64(low.ID)},
		{trace.KindMuxFailure, low.ID, 1000},
		{trace.KindMuxFailure, peer.ID, 1000},
	}
	if len(rec.Events) != len(want) {
		t.Fatalf("stream %v, want %d events", rec.Events, len(want))
	}
	for i, e := range rec.Events {
		if got := (ev{e.Kind, e.Channel, e.Aux}); got != want[i] || e.Link != l || e.Node != topology.NoNode {
			t.Fatalf("event %d = %v, want %v on link %d", i, e, want[i], l)
		}
	}
}

// TestPreemptClaimTieIsDeterministic: two held claims that tie on degree are
// both eligible victims, and the one evicted must not depend on the claims
// map's iteration order — the lowest channel id goes, the router's rule for
// link ties. Two same-pair connections (backups not multiplexed with each
// other: spare 2) hold the link; a third, multiplexed with both, preempts.
func TestPreemptClaimTieIsDeterministic(t *testing.T) {
	g := topology.NewTorus(4, 4, 10)
	path := func(nodes ...topology.NodeID) topology.Path { return torusPath(t, g, nodes...) }
	l := g.LinkBetween(4, 5)
	for run := 0; run < 128; run++ {
		m := newTestManager(g)
		var holders [2]*DConnection
		for i := range holders {
			c, err := m.EstablishOnPaths(spec1(), path(0, 1, 2), []topology.Path{path(0, 4, 5, 6, 2)}, []int{3})
			if err != nil {
				t.Fatal(err)
			}
			holders[i] = c
		}
		p, err := m.EstablishOnPaths(spec1(), path(8, 9, 10), []topology.Path{path(8, 4, 5, 6, 10)}, []int{2})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.plan.net.Spare(l); got != 2 {
			t.Fatalf("spare on the contended link = %g, want 2", got)
		}
		for _, c := range holders {
			if _, ok := m.ClaimSpareFor(l, c.Backups[0].ID, 1, false); !ok {
				t.Fatal("holder's claim failed")
			}
		}
		victim, ok := m.ClaimSpareFor(l, p.Backups[0].ID, 1, true)
		if want := holders[0].Backups[0].ID; !ok || victim != want {
			t.Fatalf("run %d: victim %d ok=%v, want the lower id %d", run, victim, ok, want)
		}
	}
}

func torusPath(t *testing.T, g *topology.Graph, nodes ...topology.NodeID) topology.Path {
	t.Helper()
	p, err := topology.PathBetween(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDegreeOf(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.DegreeOf(conn.Backups[0].ID); got != 5 {
		t.Fatalf("degree = %d", got)
	}
	if got := m.DegreeOf(conn.Primary.ID); got != 1<<30 {
		t.Fatalf("primary degree = %d, want sentinel", got)
	}
	if got := m.DegreeOf(rtchan.ChannelID(999)); got != 1<<30 {
		t.Fatalf("unknown degree = %d, want sentinel", got)
	}
}
