package core

import (
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
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
	if !m.ClaimSpareFor(l, b.ID, 1) {
		t.Fatal("first claim failed")
	}
	// Idempotent: the same channel claiming again succeeds without drawing
	// more from the pool.
	if !m.ClaimSpareFor(l, b.ID, 1) {
		t.Fatal("repeat claim failed")
	}
	if !m.ClaimedOn(l, b.ID) {
		t.Fatal("claim not recorded")
	}
	// Pool is size 1: a different channel cannot claim.
	if m.ClaimSpareFor(l, rtchan.ChannelID(999), 1) {
		t.Fatal("overdraw accepted")
	}
	m.ReleaseClaimFor(l, b.ID)
	if m.ClaimedOn(l, b.ID) {
		t.Fatal("release did not clear the claim")
	}
	if !m.ClaimSpareFor(l, rtchan.ChannelID(999), 1) {
		t.Fatal("pool not restored after release")
	}
	m.ReleaseClaimFor(l, rtchan.ChannelID(999))
	// Releasing a non-existent claim is a no-op.
	m.ReleaseClaimFor(l, rtchan.ChannelID(12345))
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
		if !m.ClaimSpareFor(l, b.ID, 1) {
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

func TestPreemptClaimOrdering(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	// Two multiplexed backups share one unit of spare on 3->4.
	c1, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.EstablishOnPaths(spec1(), path(6, 7, 8),
		[]topology.Path{path(6, 3, 4, 5, 8)}, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	l := g.LinkBetween(3, 4)
	b1, b2 := c1.Backups[0], c2.Backups[0]
	if !m.ClaimSpareFor(l, b1.ID, 1) {
		t.Fatal("claim failed")
	}
	// Higher priority (degree 7) preempts the degree-8 holder.
	victim, ok := m.PreemptClaim(l, b2.ID, 7, 1)
	if !ok || victim != b1.ID {
		t.Fatalf("preempt: victim=%d ok=%v", victim, ok)
	}
	if !m.ClaimedOn(l, b2.ID) || m.ClaimedOn(l, b1.ID) {
		t.Fatal("claims not transferred")
	}
	// Equal or lower priority cannot preempt.
	if _, ok := m.PreemptClaim(l, b1.ID, 8, 1); ok {
		t.Fatal("lower priority preempted a higher one")
	}
	if _, ok := m.PreemptClaim(l, b1.ID, 7, 1); ok {
		t.Fatal("equal priority preempted")
	}
}

// TestPreemptClaimTieIsDeterministic: two held claims that tie on degree are
// both eligible victims, and the one evicted must not depend on the claims
// map's iteration order — the lowest channel id goes, the router's rule for
// link ties. Two same-pair connections (backups not multiplexed with each
// other: spare 2) hold the link; a third, multiplexed with both, preempts.
func TestPreemptClaimTieIsDeterministic(t *testing.T) {
	g := topology.NewTorus(4, 4, 10)
	path := func(nodes ...topology.NodeID) topology.Path {
		p, err := topology.PathBetween(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
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
		if got := m.SpareOnLink(l); got != 2 {
			t.Fatalf("spare on the contended link = %g, want 2", got)
		}
		for _, c := range holders {
			if !m.ClaimSpareFor(l, c.Backups[0].ID, 1) {
				t.Fatal("holder's claim failed")
			}
		}
		victim, ok := m.PreemptClaim(l, p.Backups[0].ID, 2, 1)
		if want := holders[0].Backups[0].ID; !ok || victim != want {
			t.Fatalf("run %d: victim %d ok=%v, want the lower id %d", run, victim, ok, want)
		}
	}
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
