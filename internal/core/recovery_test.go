package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

func TestFailureHitsPath(t *testing.T) {
	g, path := mesh3(t)
	p := path(0, 1, 2)
	if !SingleLink(g.LinkBetween(0, 1)).HitsPath(p) {
		t.Fatal("link failure missed")
	}
	if SingleLink(g.LinkBetween(1, 0)).HitsPath(p) {
		t.Fatal("reverse link failure should not hit")
	}
	if !SingleNode(1).HitsPath(p) {
		t.Fatal("interior node failure missed")
	}
	if !SingleNode(0).HitsPath(p) {
		t.Fatal("end node failure missed")
	}
	if SingleNode(4).HitsPath(p) {
		t.Fatal("unrelated node hit")
	}
	f := DoubleNode(3, 4)
	if !f.NodeFailed(3) || !f.NodeFailed(4) || f.NodeFailed(5) {
		t.Fatal("DoubleNode membership wrong")
	}
	if got := len(f.nodes); got != 2 {
		t.Fatalf("nodes = %d", got)
	}
}

func TestTrialSingleLinkFastRecovery(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	stats := m.NewTrialView().Trial(SingleLink(g.LinkBetween(0, 1)), OrderByConn, nil)
	if stats.FailedPrimaries != 1 || stats.FastRecovered != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Trial must not mutate: a second identical trial gives the same
	// result, and the connection still has its original primary.
	stats2 := m.NewTrialView().Trial(SingleLink(g.LinkBetween(0, 1)), OrderByConn, nil)
	if stats2.FailedPrimaries != 1 || stats2.FastRecovered != 1 {
		t.Fatalf("second trial = %+v", stats2)
	}
	if conn.Primary.Path.String() != "0->1->2" {
		t.Fatal("trial mutated the connection")
	}
}

func TestTrialEndNodeFailureExcluded(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1}); err != nil {
		t.Fatal(err)
	}
	stats := m.NewTrialView().Trial(SingleNode(0), OrderByConn, nil)
	if stats.ExcludedConns != 1 || stats.FailedPrimaries != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestTrialBackupDead(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1}); err != nil {
		t.Fatal(err)
	}
	// Node 1 kills the primary; node 4 kills the backup.
	stats := m.NewTrialView().Trial(DoubleNode(1, 4), OrderByConn, nil)
	if stats.FailedPrimaries != 1 || stats.FastRecovered != 0 || stats.BackupDead != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestTrialMuxContention(t *testing.T) {
	// Two connections whose primaries BOTH traverse link 1->2, with backups
	// multiplexed anyway (large α): a failure of that link activates both,
	// but the shared spare only fits one => one multiplexing failure.
	g, path := mesh3(t)
	m := newTestManager(g)
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{8}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstablishOnPaths(spec1(), path(1, 2, 5),
		[]topology.Path{path(1, 4, 5)}, []int{8}); err != nil {
		t.Fatal(err)
	}
	shared := g.LinkBetween(4, 5)
	if got := m.plan.net.Spare(shared); got != 1 {
		t.Fatalf("expected multiplexed spare 1, got %g", got)
	}
	stats := m.NewTrialView().Trial(SingleLink(g.LinkBetween(1, 2)), OrderByConn, nil)
	if stats.FailedPrimaries != 2 {
		t.Fatalf("failed primaries = %d", stats.FailedPrimaries)
	}
	if stats.FastRecovered != 1 || stats.MuxFailed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestTrialSecondBackupSavesMuxFailure(t *testing.T) {
	// Like TestTrialMuxContention but the losing connection has a second
	// backup on a fully separate route, which rescues it.
	g := topology.NewMesh(4, 4, 10)
	//  0  1  2  3
	//  4  5  6  7
	//  8  9 10 11
	// 12 13 14 15
	path := func(nodes ...topology.NodeID) topology.Path {
		p, err := topology.PathBetween(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := newTestManager(g)
	if _, err := m.EstablishOnPaths(spec1(), path(1, 2, 3),
		[]topology.Path{path(1, 5, 6, 7, 3)}, []int{8}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstablishOnPaths(spec1(), path(1, 2, 6),
		[]topology.Path{path(1, 5, 6), path(1, 0, 4, 8, 9, 10, 6)}, []int{8, 8}); err != nil {
		t.Fatal(err)
	}
	if got := m.plan.net.Spare(g.LinkBetween(5, 6)); got != 1 {
		t.Fatalf("spare on 5->6 = %g, want 1 (multiplexed)", got)
	}
	stats := m.NewTrialView().Trial(SingleLink(g.LinkBetween(1, 2)), OrderByConn, nil)
	if stats.FailedPrimaries != 2 || stats.FastRecovered != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestTrialPriorityOrdering(t *testing.T) {
	// Under contention, OrderByPriority must favor the smaller degree even
	// when it has the larger connection id.
	g, path := mesh3(t)
	build := func() *Manager {
		m := newTestManager(g)
		// conn 1: degree 8 (low priority), established first.
		if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
			[]topology.Path{path(0, 3, 4, 5, 2)}, []int{8}); err != nil {
			t.Fatal(err)
		}
		// conn 2: degree 7 (higher priority), established second.
		if _, err := m.EstablishOnPaths(spec1(), path(1, 2, 5),
			[]topology.Path{path(1, 4, 5)}, []int{7}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	f := SingleLink(g.LinkBetween(1, 2))

	m := build()
	byConn := m.NewTrialView().Trial(f, OrderByConn, nil)
	if byConn.ByDegree[8].FastRecovered != 1 || byConn.ByDegree[7].FastRecovered != 0 {
		t.Fatalf("conn order: %+v %+v", byConn.ByDegree[8], byConn.ByDegree[7])
	}
	byPrio := m.NewTrialView().Trial(f, OrderByPriority, nil)
	if byPrio.ByDegree[7].FastRecovered != 1 || byPrio.ByDegree[8].FastRecovered != 0 {
		t.Fatalf("priority order: %+v %+v", byPrio.ByDegree[7], byPrio.ByDegree[8])
	}
}

func TestApplyPromotesBackup(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	backupPath := conn.Backups[0].Path
	if winners, _ := recoverByClaims(t, m, SingleLink(g.LinkBetween(0, 1)), deadFirst); len(winners) != 1 {
		t.Fatalf("activated %d backups, want 1", len(winners))
	}
	if conn.Primary == nil || conn.Primary.Path.String() != backupPath.String() {
		t.Fatal("backup not promoted to primary")
	}
	if len(conn.Backups) != 0 {
		t.Fatal("backup list not updated")
	}
	// The new primary's bandwidth is dedicated; old primary's released.
	for _, l := range backupPath.Links() {
		if m.plan.net.Dedicated(l) != 1 {
			t.Fatalf("link %d dedicated = %g", l, m.plan.net.Dedicated(l))
		}
		if m.plan.net.Spare(l) != 0 {
			t.Fatalf("link %d spare = %g after promotion", l, m.plan.net.Spare(l))
		}
	}
	if m.plan.net.Dedicated(g.LinkBetween(1, 2)) != 0 {
		t.Fatal("old primary reservation not released")
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.plan.net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyTearsDownDeadConnection(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	recoverByClaims(t, m, DoubleNode(1, 4), deadFirst)
	if m.Connection(conn.ID) != nil {
		t.Fatal("dead connection not removed")
	}
	for _, l := range g.Links() {
		if m.plan.net.Dedicated(l.ID) != 0 || m.plan.net.Spare(l.ID) != 0 {
			t.Fatalf("link %d not released", l.ID)
		}
	}
}

func TestApplyExcludedConnTornDown(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if stats := m.NewTrialView().Trial(SingleNode(2), OrderByConn, nil); stats.ExcludedConns != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// The destination fails: the healthy backup is not activated.
	if winners, _ := recoverByClaims(t, m, SingleNode(2), deadFirst); len(winners) != 0 {
		t.Fatalf("activated %d backups of a connection whose end node failed", len(winners))
	}
	if m.Connection(conn.ID) != nil {
		t.Fatal("connection with failed end node should be torn down")
	}
	for _, l := range g.Links() {
		if m.plan.net.Dedicated(l.ID) != 0 || m.plan.net.Spare(l.ID) != 0 {
			t.Fatalf("link %d not released", l.ID)
		}
	}
}

func TestApplyReconfiguresSurvivorSpare(t *testing.T) {
	// After conn A's backup is promoted, conn B's backup remains; the spare
	// pools must be re-sized for B alone.
	g, path := mesh3(t)
	m := newTestManager(g)
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{8}); err != nil {
		t.Fatal(err)
	}
	connB, err := m.EstablishOnPaths(spec1(), path(6, 7, 8),
		[]topology.Path{path(6, 3, 4, 5, 8)}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	shared := g.LinkBetween(3, 4)
	if m.plan.net.Spare(shared) != 1 {
		t.Fatalf("multiplexed spare = %g", m.plan.net.Spare(shared))
	}
	recoverByClaims(t, m, SingleLink(g.LinkBetween(0, 1)), deadFirst)
	// A's backup is now a primary on 3->4: dedicated 1. B's backup alone
	// needs spare 1. Total on the link: 2.
	if m.plan.net.Dedicated(shared) != 1 {
		t.Fatalf("dedicated = %g", m.plan.net.Dedicated(shared))
	}
	if m.plan.net.Spare(shared) != 1 {
		t.Fatalf("reconfigured spare = %g, want 1 for survivor", m.plan.net.Spare(shared))
	}
	if got := m.BackupsOnLink(shared); got != 1 {
		t.Fatalf("backups on link = %d", got)
	}
	_ = connB
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplySequentialFailures(t *testing.T) {
	// Survive a failure, then a second failure hitting the new primary:
	// with two backups the connection recovers twice.
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	conn, err := m.Establish(0, 5, rtchan.DefaultSpec(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	first := conn.Primary.Path.Links()[0]
	recoverByClaims(t, m, SingleLink(first), deadFirst)
	if conn.Primary == nil || len(conn.Backups) != 1 {
		t.Fatalf("after first failure: primary=%v backups=%d", conn.Primary, len(conn.Backups))
	}
	second := conn.Primary.Path.Links()[0]
	if winners, _ := recoverByClaims(t, m, SingleLink(second), deadFirst); len(winners) != 1 {
		t.Fatalf("second failure activated %d backups, want 1", len(winners))
	}
	if conn.Primary == nil || len(conn.Backups) != 0 {
		t.Fatal("second recovery did not consume the last backup")
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.plan.net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRandomizedStorm(t *testing.T) {
	// Fuzz: establish many connections on a torus, recover from a series of
	// random failures through the claim API, checking the end state after
	// each step.
	g := topology.NewTorus(6, 6, 100)
	m := newTestManager(g)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		s := topology.NodeID(rng.Intn(36))
		d := topology.NodeID(rng.Intn(36))
		if s == d {
			continue
		}
		_, _ = m.Establish(s, d, rtchan.DefaultSpec(), []int{1 + rng.Intn(6)})
	}
	for step := 0; step < 10; step++ {
		var f Failure
		if rng.Intn(2) == 0 {
			f = SingleLink(topology.LinkID(rng.Intn(g.NumLinks())))
		} else {
			f = SingleNode(topology.NodeID(rng.Intn(36)))
		}
		recoverByClaims(t, m, f, deadFirst)
		checkRecovered(t, fmt.Sprintf("step %d", step), m, f)
	}
}

// TestTrialStampMatchesHitsPath pins what activate relies on:
// after a trial, a channel carries the trial's stamp exactly when the failure
// hits its path, because the snapshot lists a channel under every link of its
// path and every node it visits has one of those links in or out, end nodes
// included. Checked for every channel of every connection on the loaded
// evaluation torus — not only the affected ones — under single-component
// failures, double-node failures and failures of more than two components
// of a kind.
func TestTrialStampMatchesHitsPath(t *testing.T) {
	m := loadedEvalTorus(4032)
	g := m.Graph()
	var failures []Failure
	for _, l := range g.Links() {
		failures = append(failures, SingleLink(l.ID))
	}
	for v := 0; v < g.NumNodes(); v++ {
		failures = append(failures, SingleNode(topology.NodeID(v)))
	}
	rng := rand.New(rand.NewSource(19))
	node := func() topology.NodeID { return topology.NodeID(rng.Intn(g.NumNodes())) }
	link := func() topology.LinkID { return topology.LinkID(rng.Intn(g.NumLinks())) }
	for i := 0; i < 64; i++ {
		failures = append(failures, DoubleNode(node(), node()))
		failures = append(failures, NewFailure(
			[]topology.LinkID{link(), link(), link(), link()},
			[]topology.NodeID{node(), node(), node()}))
	}
	var scratch trialScratch
	for _, f := range failures {
		m.plan.trial(f, OrderByConn, nil, &scratch)
		s := &scratch.snap
		for i, conn := range m.Connections() {
			c := int32(i)
			if rec := s.conns[c]; rec.src != conn.Src || rec.dst != conn.Dst || int(rec.bk1-rec.bk0) != len(conn.Backups) {
				t.Fatalf("dense connection %d is %d->%d with %d backups, connection %d %d->%d with %d",
					c, rec.src, rec.dst, rec.bk1-rec.bk0, conn.ID, conn.Src, conn.Dst, len(conn.Backups))
			}
			stamped := []bool{primaryStamped(&scratch, c)}
			for b := s.conns[c].bk0; b < s.conns[c].bk1; b++ {
				stamped = append(stamped, scratch.backupHit(b))
			}
			if len(stamped) != 1+len(conn.Backups) || conn.Primary == nil {
				t.Fatalf("conn %d: snapshot holds %d channels, the connection %d", conn.ID, len(stamped), 1+len(conn.Backups))
			}
			for j, ch := range channelsOf(conn) {
				if got, want := stamped[j], f.HitsPath(ch.Path); got != want {
					t.Fatalf("failure links %v nodes %v: channel %d (conn %d, path %v) stamped %v, HitsPath %v",
						f.links, f.nodes, ch.ID, conn.ID, ch.Path, got, want)
				}
			}
		}
	}
}

// TestClaimRecoveryActivatesTrialWinners holds the two planes to one
// decision: on every single-node failure of the loaded mixed-degree 6x6
// torus (request i at degree {1,3,5,6}[i%4], odd requests with a second
// backup at the next degree), recovery through the protocol plane's claim
// API (recoverByClaims, on a fresh load each) activates exactly the backups
// the reference trial picks, in connection order, and leaves the end state
// checkRecovered asks for. The corpus must see multiplexing failures and
// second-backup activations, or the comparison is vacuous.
func TestClaimRecoveryActivatesTrialWinners(t *testing.T) {
	mixed := []int{1, 3, 5, 6}
	degrees := func(i int) []int {
		if i%2 == 0 {
			return []int{mixed[i%4]}
		}
		return []int{mixed[i%4], mixed[(i+1)%4]}
	}
	var total RecoveryStats
	later := 0 // winners that were not their connection's first backup
	for n := 0; n < 36; n++ {
		m := allPairs(topology.NewTorus(6, 6, 200), degrees)
		f := SingleNode(topology.NodeID(n))
		stats := m.NewTrialView().Trial(f, OrderByConn, nil)
		first := map[rtchan.ChannelID]bool{}
		for _, c := range m.Connections() {
			if len(c.Backups) > 0 {
				first[c.Backups[0].ID] = true
			}
		}
		for _, w := range recoverAgainstReference(t, m, f) {
			if !first[w.ID] {
				later++
			}
		}
		checkRecovered(t, fmt.Sprintf("node %d", n), m, f)
		total.FailedPrimaries += stats.FailedPrimaries
		total.FastRecovered += stats.FastRecovered
		total.MuxFailed += stats.MuxFailed
		total.BackupDead += stats.BackupDead
		total.ExcludedConns += stats.ExcludedConns
	}
	if total.FastRecovered == 0 || total.MuxFailed == 0 || total.ExcludedConns == 0 || later == 0 {
		t.Fatalf("corpus misses an outcome class: %+v, %d later backups activated", total, later)
	}
	t.Logf("36 node failures: %+v, %d later backups activated", total, later)
}

// TestRecoveryOrderDoesNotMatter recovers the all-pairs 8x8 mesh (300 Mb/s)
// at α=3 from every third node's single-node failure twice, each on a fresh
// load: dead primaries torn down before the activations, and in bcpd's
// order, activations first. Both must leave the state checkRecovered asks
// for, the same winners, and the same spare and dedicated bandwidth on every
// link: a pool an activation sized within the headroom a dead primary left
// is settled again when that primary goes. Both managers reconfigure
// coalesced, as bcpd's do (TestCoalescedReconfigEquivalence holds that to
// the eager rebuild).
func TestRecoveryOrderDoesNotMatter(t *testing.T) {
	stride := 3
	if testing.Short() {
		stride = 13
	}
	for n := 0; n < 64; n += stride {
		f := SingleNode(topology.NodeID(n))
		var ms [2]*Manager
		var won [2][]rtchan.ChannelID
		for i, order := range []recoveryOrder{deadFirst, activateFirst} {
			m := allPairs(topology.NewMesh(8, 8, 300), func(int) []int { return []int{3} })
			m.SetCoalescedReconfig(true)
			w, _ := recoverByClaims(t, m, f, order)
			checkRecovered(t, fmt.Sprintf("node %d order %d", n, order), m, f)
			ms[i], won[i] = m, channelIDs(w)
		}
		if !slices.Equal(won[0], won[1]) {
			t.Fatalf("node %d: winners %v dead first, %v activations first", n, won[0], won[1])
		}
		a, b := ms[0].plan.net, ms[1].plan.net
		for l := range ms[0].Graph().NumLinks() {
			id := topology.LinkID(l)
			if a.Spare(id) != b.Spare(id) || a.Dedicated(id) != b.Dedicated(id) {
				t.Fatalf("node %d: link %d spare %g dedicated %g dead first, spare %g dedicated %g activations first",
					n, l, a.Spare(id), a.Dedicated(id), b.Spare(id), b.Dedicated(id))
			}
		}
	}
}
