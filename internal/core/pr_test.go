package core

import (
	"testing"

	"github.com/rtcl/bcp/internal/reliability"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

func TestConnectionPrNoBackup(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	conn, err := m.Establish(0, 5, rtchan.DefaultSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := reliability.ChannelSurvival(m.plan.cfg.Lambda, conn.Primary.Path.NumComponents())
	if got := m.ConnectionPr(conn); got != want {
		t.Fatalf("Pr = %g, want %g", got, want)
	}
}

func TestConnectionPrImprovesWithBackups(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	m := newTestManager(g)
	c0, err := m.Establish(0, 36, rtchan.DefaultSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := m.Establish(1, 37, rtchan.DefaultSpec(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Establish(2, 38, rtchan.DefaultSpec(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1, p2 := m.ConnectionPr(c0), m.ConnectionPr(c1), m.ConnectionPr(c2)
	if !(p0 < p1 && p1 < p2 && p2 <= 1) {
		t.Fatalf("Pr not increasing: %g %g %g", p0, p1, p2)
	}
}

func TestConnectionPrDegradesWithMultiplexing(t *testing.T) {
	// A backup multiplexed with many peers has a larger P_muxf bound.
	g, path := mesh3(t)
	lone := newTestManager(g)
	cLone, err := lone.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	crowded := newTestManager(g)
	cCrowd, err := crowded.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crowded.EstablishOnPaths(spec1(), path(6, 7, 8),
		[]topology.Path{path(6, 3, 4, 5, 8)}, []int{6}); err != nil {
		t.Fatal(err)
	}
	if got, want := crowded.ConnectionPr(cCrowd), lone.ConnectionPr(cLone); got >= want {
		t.Fatalf("multiplexed Pr %g should be below lone Pr %g", got, want)
	}
}

func TestEstablishWithPrZeroBackupsSuffices(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	// A 1-hop connection survives with probability (1-λ)^3 ≈ 0.9997;
	// requiring 0.99 needs no backups.
	conn, err := m.EstablishWithPr(0, 1, rtchan.DefaultSpec(), 0.99, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) != 0 {
		t.Fatalf("backups = %d, want 0", len(conn.Backups))
	}
}

func TestEstablishWithPrAddsBackups(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	m := newTestManager(g)
	// An 8-hop primary survives with (1-1e-4)^17 ≈ 0.9983: requiring
	// 0.9999 forces at least one backup.
	conn, err := m.EstablishWithPr(0, 36, rtchan.DefaultSpec(), 0.9999, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) == 0 {
		t.Fatal("expected at least one backup")
	}
	if got := m.ConnectionPr(conn); got < 0.9999 {
		t.Fatalf("delivered Pr %g below requirement", got)
	}
}

func TestEstablishWithPrPicksLargestDegree(t *testing.T) {
	// With no competing backups, any degree yields the same Pr, so the
	// negotiation must settle on the largest (cheapest) degree offered.
	g := topology.NewTorus(8, 8, 200)
	m := newTestManager(g)
	conn, err := m.EstablishWithPr(0, 36, rtchan.DefaultSpec(), 0.9999, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range conn.Degrees {
		if d != 6 {
			t.Fatalf("degrees = %v, want all 6", conn.Degrees)
		}
	}
}

func TestEstablishWithPrTightensDegreeUnderContention(t *testing.T) {
	// Fill a corridor with backups multiplexed at high degree whose
	// primaries overlap the new connection's primary, so a high-ν backup
	// suffers a large P_muxf bound and the negotiation must pick a smaller ν
	// (or more backups).
	g := topology.NewTorus(8, 8, 200)
	m := newTestManager(g)
	for i := 0; i < 6; i++ {
		if _, err := m.Establish(0, 36, rtchan.DefaultSpec(), []int{8}); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := m.EstablishWithPr(0, 36, rtchan.DefaultSpec(), 0.99985, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ConnectionPr(conn); got < 0.99985 {
		t.Fatalf("delivered Pr %g below requirement", got)
	}
	// The cheapest configuration (one backup at degree 8) must not satisfy
	// the requirement here, otherwise the test is vacuous.
	probe := newTestManager(g)
	for i := 0; i < 6; i++ {
		if _, err := probe.Establish(0, 36, rtchan.DefaultSpec(), []int{8}); err != nil {
			t.Fatal(err)
		}
	}
	cheap, err := probe.Establish(0, 36, rtchan.DefaultSpec(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if probe.ConnectionPr(cheap) >= 0.99985 {
		t.Skip("contention too weak to exercise tightening on this topology")
	}
	if len(conn.Degrees) == 1 && conn.Degrees[0] == 8 {
		t.Fatal("negotiation returned the cheapest config despite it missing the requirement")
	}
}

func TestEstablishWithPrRejectsImpossible(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	if _, err := m.EstablishWithPr(0, 5, rtchan.DefaultSpec(), 0.9999999999, 1, 6); err == nil {
		t.Fatal("unattainable Pr accepted")
	}
	if m.NumConnections() != 0 {
		t.Fatal("failed negotiation left connections behind")
	}
	if _, err := m.EstablishWithPr(0, 5, rtchan.DefaultSpec(), 1.5, 1, 6); err == nil {
		t.Fatal("invalid Pr accepted")
	}
}

func TestProspectivePsiMatchesCommitted(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{6}); err != nil {
		t.Fatal(err)
	}
	primary := path(6, 7, 8)
	backup := path(6, 3, 4, 5, 8)
	primRow := make([]uint64, m.plan.sigStride)
	m.plan.writeSig(primRow, primary.Links(), primary.Nodes())
	predicted := m.estCtx.prospectivePsiSizes(primRow, backup, 6)
	conn, err := m.EstablishOnPaths(spec1(), primary, []topology.Path{backup}, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	actual := m.psiSizes(conn.Backups[0])
	for i := range predicted {
		if predicted[i] != actual[i] {
			t.Fatalf("psi mismatch at link %d: predicted %v actual %v", i, predicted, actual)
		}
	}
}

// TestEstablishWithPrBesidePrimarylessConnection is the regression test for a
// nil dereference in the Ψ prediction: during a Figure-6 rejoin a connection
// can momentarily have backups but no primary, and a negotiation whose
// candidate backup links host one of those backups used to read the missing
// primary's path. The peer is now counted in Π (the conservative treatment
// admission gives it), so the prediction still equals what commit realizes.
func TestEstablishWithPrBesidePrimarylessConnection(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	spec := rtchan.DefaultSpec()
	rejoining, err := m.Establish(0, 5, spec, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreAsBackup(rejoining.ID, rejoining.Primary.ID, 3); err != nil {
		t.Fatal(err)
	}
	if rejoining.Primary != nil || len(rejoining.Backups) != 2 {
		t.Fatalf("setup: primary %v, %d backups", rejoining.Primary, len(rejoining.Backups))
	}
	conn, err := m.EstablishWithPr(0, 5, spec, 0.9999, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) == 0 {
		t.Fatal("negotiation met 0.9999 without a backup")
	}
	// Wherever the new backup meets one of the primary-less connection's, the
	// two must not share spare: Ψ excludes that peer on every such link.
	met := false
	for _, b := range conn.Backups {
		psi := m.psiSizes(b)
		for i, l := range b.Path.Links() {
			lm := &m.plan.mux[l]
			for ei := range lm.entries {
				if lm.entries[ei].sig == rejoining.sig {
					met = true
					if psi[i] != len(lm.entries)-2 {
						t.Fatalf("link %d: Ψ = %d with %d entries, want the primary-less peer excluded", l, psi[i], len(lm.entries))
					}
				}
			}
		}
	}
	if !met {
		t.Fatal("the negotiated backups never met the primary-less connection's")
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}
