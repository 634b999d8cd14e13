package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// mesh3 returns a 3x3 mesh and a path helper.
//
//	0 1 2
//	3 4 5
//	6 7 8
func mesh3(t *testing.T) (*topology.Graph, func(nodes ...topology.NodeID) topology.Path) {
	t.Helper()
	g := topology.NewMesh(3, 3, 10)
	return g, func(nodes ...topology.NodeID) topology.Path {
		t.Helper()
		p, err := topology.PathBetween(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

func newTestManager(g *topology.Graph) *Manager {
	return NewManager(g, DefaultConfig())
}

func spec1() rtchan.TrafficSpec { return rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2} }

func TestSingleBackupSparesOwnBandwidth(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	conn, err := m.EstablishOnPaths(spec1(),
		path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)},
		[]int{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range conn.Backups[0].Path.Links() {
		if got := m.plan.net.Spare(l); got != 1 {
			t.Fatalf("spare on backup link %d = %g, want 1", l, got)
		}
	}
	for _, l := range conn.Primary.Path.Links() {
		if got := m.plan.net.Dedicated(l); got != 1 {
			t.Fatalf("dedicated on primary link %d = %g, want 1", l, got)
		}
		if got := m.plan.net.Spare(l); got != 0 {
			t.Fatalf("spare on primary link %d = %g, want 0", l, got)
		}
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDisjointPrimariesMultiplex(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	// Two connections with disjoint primaries whose backups share links
	// 3->4 and 4->5: at mux=1 they multiplex, so spare = 1, not 2.
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstablishOnPaths(spec1(), path(6, 7, 8),
		[]topology.Path{path(6, 3, 4, 5, 8)}, []int{1}); err != nil {
		t.Fatal(err)
	}
	shared := g.LinkBetween(3, 4)
	if got := m.plan.net.Spare(shared); got != 1 {
		t.Fatalf("multiplexed spare = %g, want 1", got)
	}
	if got := m.BackupsOnLink(shared); got != 2 {
		t.Fatalf("backups on link = %d", got)
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlappingPrimariesDoNotMultiplex(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	// Both primaries traverse link 1->2 (sc=1..3 >= 1), so at mux=1 their
	// backups must not share spare bandwidth.
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstablishOnPaths(spec1(), path(1, 2, 5),
		[]topology.Path{path(1, 4, 5)}, []int{1}); err != nil {
		t.Fatal(err)
	}
	shared := g.LinkBetween(4, 5)
	if got := m.plan.net.Spare(shared); got != 2 {
		t.Fatalf("non-multiplexed spare = %g, want 2", got)
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMuxDegreeSeparatesLinkSharing(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	// p1 = 0->1->2, p2 = 1->2->5 share link 1->2 and nodes 1, 2 => sc = 3.
	// At mux=4 (share < 4) the second backup multiplexes with the first;
	// at mux<=3 it would not.
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstablishOnPaths(spec1(), path(1, 2, 5),
		[]topology.Path{path(1, 4, 5)}, []int{4}); err != nil {
		t.Fatal(err)
	}
	shared := g.LinkBetween(4, 5)
	// Π is restricted to peers with no greater degree: the mux=1 backup
	// ignores the mux=4 peer (req=1), and the mux=4 backup sees S=3λ below
	// its ν=3.5λ so it multiplexes (req=1). Spare = max(1,1) = 1.
	if got := m.plan.net.Spare(shared); got != 1 {
		t.Fatalf("spare = %g, want 1", got)
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	// Same geometry at mux=3 on the second backup: sc=3 >= 3, so no
	// sharing; the second link's spare must hold both.
	m2 := newTestManager(g)
	if _, err := m2.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.EstablishOnPaths(spec1(), path(1, 2, 5),
		[]topology.Path{path(1, 4, 5)}, []int{3}); err != nil {
		t.Fatal(err)
	}
	if got := m2.plan.net.Spare(shared); got != 2 {
		t.Fatalf("mux=3 spare = %g, want 2", got)
	}
}

func TestMuxZeroDisablesSharing(t *testing.T) {
	g, _ := mesh3(t)
	m := newTestManager(g)
	for i := 0; i < 2; i++ {
		srcs := [][]topology.NodeID{{0, 1, 2}, {6, 7, 8}}
		backs := [][]topology.NodeID{{0, 3, 4, 5, 2}, {6, 3, 4, 5, 8}}
		if _, err := m.EstablishOnPaths(spec1(),
			mustPathT(t, g, srcs[i]), []topology.Path{mustPathT(t, g, backs[i])}, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	shared := g.LinkBetween(3, 4)
	if got := m.plan.net.Spare(shared); got != 2 {
		t.Fatalf("mux=0 spare = %g, want 2 (no sharing)", got)
	}
}

func mustPathT(t *testing.T, g *topology.Graph, nodes []topology.NodeID) topology.Path {
	t.Helper()
	p, err := topology.PathBetween(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// linkPathT is mustPathT for a link sequence.
func linkPathT(t *testing.T, g *topology.Graph, links ...topology.LinkID) topology.Path {
	t.Helper()
	p, err := topology.NewPath(g, links)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSameConnectionBackupsNeverShare(t *testing.T) {
	// Two backups of the same connection meeting on a link must not share
	// spare bandwidth even at a huge multiplexing degree: S of the one-hop
	// primary against itself is 1-(1-λ)³ ≈ 3e-4, below ν(8) = 7.5e-4, so only
	// the same-connection rule keeps them apart. Diamond with a shared tail.
	g := topology.NewGraph(4)
	duplex := func(a, b topology.NodeID) {
		if _, err := g.AddLink(a, b, 10); err != nil {
			panic(err)
		}
		if _, err := g.AddLink(b, a, 10); err != nil {
			panic(err)
		}
	}
	duplex(0, 1) // primary
	duplex(0, 2)
	duplex(2, 1) // shared tail
	duplex(0, 3)
	duplex(3, 2)
	m := newTestManager(g)
	p := linkPathT(t, g, g.LinkBetween(0, 1))
	b1 := mustPathT(t, g, []topology.NodeID{0, 2, 1})
	b2 := mustPathT(t, g, []topology.NodeID{0, 3, 2, 1})
	if _, err := m.EstablishOnPaths(spec1(), p, []topology.Path{b1, b2}, []int{8, 8}); err != nil {
		t.Fatal(err)
	}
	tail := g.LinkBetween(2, 1)
	if got := m.plan.net.Spare(tail); got != 2 {
		t.Fatalf("spare on the shared tail = %g, want 2 (no sharing within a connection)", got)
	}
	// The from-scratch rebuild applies the same rule.
	m.recomputeLinkMux(tail)
	m.settle(tail)
	if got := m.plan.net.Spare(tail); got != 2 {
		t.Fatalf("spare on the shared tail after rebuild = %g, want 2", got)
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTeardownRestoresSpare(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	c1, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.EstablishOnPaths(spec1(), path(1, 2, 5),
		[]topology.Path{path(1, 4, 5)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	shared := g.LinkBetween(4, 5)
	if got := m.plan.net.Spare(shared); got != 2 {
		t.Fatalf("spare = %g, want 2", got)
	}
	if err := m.Teardown(c1.ID); err != nil {
		t.Fatal(err)
	}
	if got := m.plan.net.Spare(shared); got != 1 {
		t.Fatalf("spare after teardown = %g, want 1", got)
	}
	if err := m.Teardown(c2.ID); err != nil {
		t.Fatal(err)
	}
	for _, l := range g.Links() {
		if m.plan.net.Spare(l.ID) != 0 || m.plan.net.Dedicated(l.ID) != 0 {
			t.Fatalf("link %d not clean after teardown", l.ID)
		}
	}
	if m.NumConnections() != 0 {
		t.Fatal("connections remain")
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSpareAdmissionRejectsOvercommit(t *testing.T) {
	// Capacity 2: one primary (1) + one unmultiplexed backup (1) fills the
	// link; a second conflicting backup must be rejected.
	g := topology.NewGraph(4)
	duplex := func(a, b topology.NodeID, cap float64) {
		if _, err := g.AddLink(a, b, cap); err != nil {
			panic(err)
		}
		if _, err := g.AddLink(b, a, cap); err != nil {
			panic(err)
		}
	}
	duplex(0, 1, 10)
	duplex(1, 2, 10)
	duplex(0, 3, 2) // tight link
	duplex(3, 2, 10)
	m := newTestManager(g)
	// conn A: primary 0->1->2, backup 0->3->2 (spare 1 on 0->3).
	pA := mustPathT(t, g, []topology.NodeID{0, 1, 2})
	bA := mustPathT(t, g, []topology.NodeID{0, 3, 2})
	if _, err := m.EstablishOnPaths(spec1(), pA, []topology.Path{bA}, []int{1}); err != nil {
		t.Fatal(err)
	}
	// conn B: primary also 0->1->2 (shares components with A's primary =>
	// no multiplexing at mux=1), backup 0->3->2: needs spare 2 > free 1 on
	// the tight link after B's... capacity 2, dedicated 0, spare needed 2:
	// fits exactly. Use bandwidth 1.5 to overflow: spare would need 2.5.
	spec := rtchan.TrafficSpec{Bandwidth: 1.5, SlackHops: 2}
	if _, err := m.EstablishOnPaths(spec, pA, []topology.Path{bA}, []int{1}); err == nil {
		t.Fatal("overcommitting backup accepted")
	}
	// State must be fully rolled back.
	if got := m.plan.net.Spare(g.LinkBetween(0, 3)); got != 1 {
		t.Fatalf("rollback left spare %g, want 1", got)
	}
	if m.NumConnections() != 1 {
		t.Fatalf("rollback left %d connections", m.NumConnections())
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPsiSizes(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	c1, _ := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	// Disjoint primary => multiplexed with c1's backup on shared links.
	c2, err := m.EstablishOnPaths(spec1(), path(6, 7, 8),
		[]topology.Path{path(6, 3, 4, 5, 8)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	psi := m.psiSizes(c2.Backups[0])
	// Backup path 6->3->4->5->8: links (6,3),(3,4),(4,5),(5,8).
	// Shared with c1's backup: (3,4),(4,5) => Ψ = 1 there, 0 elsewhere.
	want := []int{0, 1, 1, 0}
	for i := range want {
		if psi[i] != want[i] {
			t.Fatalf("psi = %v, want %v", psi, want)
		}
	}
	psi1 := m.psiSizes(c1.Backups[0])
	// c1 backup: (0,3),(3,4),(4,5),(5,2) => Ψ = 0,1,1,0.
	for i, w := range []int{0, 1, 1, 0} {
		if psi1[i] != w {
			t.Fatalf("psi1 = %v", psi1)
		}
	}
}

// TestMuxEntryIs32Bytes pins the layout the admission scan streams: the
// threshold class sits in the padding after the signature row index, two
// entries to a cache line.
func TestMuxEntryIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(muxEntry{}); n != 32 {
		t.Fatalf("muxEntry is %d bytes, want 32", n)
	}
}

// BenchmarkScanLink times the admission scan alone, shaped like
// establish_churn's: 2000 seeded requests are routed against the loaded 8x8
// torus (every ordered pair, one backup at degree 3), and each iteration scans
// the backup links of one of them with its primary's signature, as admission
// does. It reports the time per existing entry the scan decides.
func BenchmarkScanLink(b *testing.B) {
	m := loadedEvalTorus(1 << 30)
	n := m.Graph().NumNodes()
	rng := rand.New(rand.NewSource(1))
	type routedScan struct {
		row   []uint64
		links []topology.LinkID
	}
	var scans []routedScan
	entries := 0
	pc := m.estCtx
	for len(scans) < 2000 {
		src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
		if pc.route(src, dst, rtchan.DefaultSpec(), 1) != nil {
			continue
		}
		s := routedScan{row: make([]uint64, m.plan.sigStride), links: append([]topology.LinkID(nil), pc.backups[0].links...)}
		m.plan.writeSig(s.row, pc.prim.links, pc.prim.nodes)
		for _, l := range s.links {
			entries += len(m.plan.mux[l].entries)
		}
		scans = append(scans, s)
	}
	cls := m.plan.degreeClass(3)
	bw := rtchan.DefaultSpec().Bandwidth
	var grow, pi []int32
	scanned := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &scans[i%len(scans)]
		for _, l := range s.links {
			lm := &m.plan.mux[l]
			grow, pi = grow[:0], pi[:0]
			m.plan.scanLink(lm, -1, s.row, cls, bw, &grow, &pi)
			scanned += len(lm.entries)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/entry")
	b.ReportMetric(float64(entries)/float64(len(scans)), "entries/plan")
}
