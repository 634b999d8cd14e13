package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/rtcl/bcp/internal/reliability"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// TestEstablishVariantsKeepInvariants is the randomized run of Establish
// (route, then admit) over tight tori, meshes and random graphs, with mixed
// bandwidths and backup degrees drawn by defaultBatchSpec. After the fill the
// multiplexing and reservation invariants hold; a rejection consumed no
// connection id and moved no link's accounts; and a second manager fed the
// same requests ends in the identical state (establishment is a function of
// the request sequence). Every rejection here is a routing one: the
// admission rollback is TestEstablishRollsBackRefusedBackup's.
func TestEstablishVariantsKeepInvariants(t *testing.T) {
	// "default": the corpus draws its traffic specs from defaultBatchSpec.
	t.Run("default", func(t *testing.T) {
		established, rejected := 0, 0
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := batchTopology(rng, seed)
			reqs := batchRequests(rng, g, 90, defaultBatchSpec)
			ctx := fmt.Sprintf("seed %d", seed)

			cfg := DefaultConfig()
			m, twin := NewManager(g, cfg), NewManager(g, cfg)
			for i := range reqs {
				r := &reqs[i]
				accounts := linkAccounts(m)
				next, live := m.nextConn, m.NumConnections()
				conn, err := m.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
				_, twinErr := twin.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
				if (err == nil) != (twinErr == nil) || (err != nil && err.Error() != twinErr.Error()) {
					t.Fatalf("%s req %d: err %v, twin err %v", ctx, i, err, twinErr)
				}
				if err == nil {
					established++
					if conn.ID != next || m.nextConn != next+1 {
						t.Fatalf("%s req %d: conn id %d after nextConn %d", ctx, i, conn.ID, next)
					}
					continue
				}
				rejected++
				if m.nextConn != next || m.NumConnections() != live {
					t.Fatalf("%s req %d: rejection moved nextConn %d→%d, conns %d→%d",
						ctx, i, next, m.nextConn, live, m.NumConnections())
				}
				requireSameAccounts(t, fmt.Sprintf("%s req %d", ctx, i), m, accounts)
			}
			requireSameManagers(t, ctx, m, twin)
			if err := m.CheckMuxInvariants(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if err := m.plan.net.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
		if established == 0 || rejected == 0 {
			t.Fatalf("corpus not contended: %d established, %d rejected", established, rejected)
		}
	})
}

// linkAccounts returns every link's spare and dedicated bandwidth.
func linkAccounts(m *Manager) [][2]float64 {
	out := make([][2]float64, m.Graph().NumLinks())
	for l := range out {
		ll := topology.LinkID(l)
		out[l] = [2]float64{m.plan.net.Spare(ll), m.plan.net.Dedicated(ll)}
	}
	return out
}

// requireSameAccounts fails if a link's spare or dedicated bandwidth moved
// from what linkAccounts recorded.
func requireSameAccounts(t *testing.T, ctx string, m *Manager, was [][2]float64) {
	t.Helper()
	for l, now := range linkAccounts(m) {
		if now != was[l] {
			t.Fatalf("%s: rejection moved link %d: spare %g→%g, dedicated %g→%g", ctx, l, was[l][0], now[0], was[l][1], now[1])
		}
	}
}

// contendedManager builds and fills the network of the admission-rollback
// tests. Request 0->1 routes its primary 0-2-10-1, its first backup 0-3-11-1
// and its second 0-4-5-1, all of 3 hops, in link-id order. Link from->to
// (3->11 or 4->5, a backup's middle link) has capacity 2.5 and carries the
// backups of two connections whose primaries, 6-2-7 and 8-10-9, are
// disjoint and each meet the request's primary at one node. Those two
// backups multiplex (spare 1, so 1.5 free: the link routes a bandwidth-1
// backup). A request backup at degree 1 counts both in Π and needs spare 3
// there, which the link refuses; at degree 2 it multiplexes with both.
func contendedManager(t *testing.T, from, to topology.NodeID) *Manager {
	t.Helper()
	g := topology.NewGraph(12)
	for _, l := range [][2]topology.NodeID{
		{0, 2}, {2, 10}, {10, 1}, {0, 3}, {3, 11}, {11, 1}, {0, 4}, {4, 5}, {5, 1},
		{6, 2}, {2, 7}, {8, 10}, {10, 9}, {6, from}, {to, 7}, {8, from}, {to, 9},
	} {
		capacity := 10.0
		if l == [2]topology.NodeID{from, to} {
			capacity = 2.5
		}
		if _, err := g.AddLink(l[0], l[1], capacity); err != nil {
			t.Fatal(err)
		}
	}
	path := func(nodes ...topology.NodeID) topology.Path {
		p, err := topology.PathBetween(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := newTestManager(g)
	for _, c := range [][2][]topology.NodeID{{{6, 2, 7}, {6, from, to, 7}}, {{8, 10, 9}, {8, from, to, 9}}} {
		if _, err := m.EstablishOnPaths(spec1(), path(c[0]...), []topology.Path{path(c[1]...)}, []int{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.plan.net.Spare(g.LinkBetween(from, to)); got != 1 {
		t.Fatalf("link %d->%d spare %g, want 1: the two backups do not multiplex", from, to, got)
	}
	return m
}

// TestEstablishRollsBackRefusedBackup routes a request whose second backup
// a spare pool refuses after the first is wired: the rejection consumes no
// connection id, leaves every link's accounts as they were, and leaves the
// manager identical to one that never saw the request.
func TestEstablishRollsBackRefusedBackup(t *testing.T) {
	m := contendedManager(t, 4, 5)
	accounts, next := linkAccounts(m), m.nextConn
	_, err := m.Establish(0, 1, spec1(), []int{1, 1})
	if err == nil || !strings.Contains(err.Error(), "backup 2 multiplexing") {
		t.Fatalf("Establish = %v, want backup 2 refused", err)
	}
	if m.nextConn != next {
		t.Fatalf("rejection moved nextConn %d→%d", next, m.nextConn)
	}
	requireSameAccounts(t, "rejected", m, accounts)
	requireSameManagers(t, "rejected", m, contendedManager(t, 4, 5))
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.plan.net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEstablishWithPrMovesOnAfterRefusal: one backup meets the requirement
// only at degree 1, where the spare pool refuses it; two backups meet it at
// degree 2, which fits. The refused attempt rolls back and the negotiation
// admits the next count.
func TestEstablishWithPrMovesOnAfterRefusal(t *testing.T) {
	m := contendedManager(t, 3, 11)
	lambda := m.plan.cfg.Lambda
	// One 3-hop backup with no multiplexing failure, behind a 3-hop primary.
	required := reliability.Pr(lambda, 7, []reliability.BackupInfo{{Components: 7}})
	var lastChan rtchan.ChannelID
	for _, c := range m.Connections() {
		for _, ch := range channelsOf(c) {
			lastChan = max(lastChan, ch.ID)
		}
	}
	next := m.nextConn
	conn, err := m.EstablishWithPr(0, 1, spec1(), required, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if conn.ID != next || m.nextConn != next+1 {
		t.Fatalf("conn id %d, nextConn %d→%d", conn.ID, next, m.nextConn)
	}
	if len(conn.Degrees) != 2 || conn.Degrees[0] != 2 || conn.Degrees[1] != 2 {
		t.Fatalf("degrees %v, want [2 2]", conn.Degrees)
	}
	// The refused attempt minted a primary and its backup before rolling back.
	if conn.Primary.ID != lastChan+3 {
		t.Fatalf("primary is channel %d after channel %d, want the refused attempt's two ids spent", conn.Primary.ID, lastChan)
	}
	if got := m.ConnectionPr(conn); got < required {
		t.Fatalf("delivered Pr %g below requirement %g", got, required)
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}
