package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/rtcl/bcp/internal/reliability"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// sharedComponents returns sc(p, q) by walking the paths: the number of
// components (links and nodes, end nodes included) common to both. It is the
// reference for sigShared's popcount over signature rows. Two channels of one
// D-connection are component-disjoint exactly when they share 2: their
// source and destination.
func sharedComponents(p, q topology.Path) int {
	sc := 0
	for _, l := range p.Links() {
		if q.ContainsLink(l) {
			sc++
		}
	}
	for _, n := range p.Nodes() {
		if q.ContainsNode(n) {
			sc++
		}
	}
	return sc
}

// TestSharedComponents pins the reference count on hand-built mesh paths.
func TestSharedComponents(t *testing.T) {
	g := topology.NewMesh(3, 3, 10)
	// Nodes: 0 1 2 / 3 4 5 / 6 7 8
	p1, _ := topology.PathBetween(g, []topology.NodeID{0, 1, 2, 5}) // links 0-1,1-2,2-5
	p2, _ := topology.PathBetween(g, []topology.NodeID{3, 4, 1, 2}) // links 3-4,4-1,1-2
	// Shared: link 1->2 plus nodes 1 and 2 (all visited nodes count).
	if sc := sharedComponents(p1, p2); sc != 3 {
		t.Fatalf("sc = %d, want 3 (link 1->2 + nodes 1,2)", sc)
	}
	// Symmetry.
	if sc := sharedComponents(p2, p1); sc != 3 {
		t.Fatalf("sc not symmetric")
	}
	// Self-share: all components.
	if sc := sharedComponents(p1, p1); sc != p1.NumComponents() {
		t.Fatalf("self sc = %d, want %d", sc, p1.NumComponents())
	}
	// Opposite-direction links are distinct components; nodes are shared.
	q1, _ := topology.PathBetween(g, []topology.NodeID{0, 1, 2})
	q2, _ := topology.PathBetween(g, []topology.NodeID{2, 1, 0})
	if sc := sharedComponents(q1, q2); sc != 3 {
		t.Fatalf("antiparallel paths share sc=%d, want 3 (nodes 0,1,2)", sc)
	}
	// Sharing a single link always implies >= 3 shared components — the
	// property underlying the paper's mux=3 single-link-failure guarantee.
	r1, _ := topology.PathBetween(g, []topology.NodeID{0, 1, 2})
	r2, _ := topology.PathBetween(g, []topology.NodeID{0, 1, 4})
	if sc := sharedComponents(r1, r2); sc != 3 {
		t.Fatalf("paths sharing their first link: sc=%d, want 3", sc)
	}
}

// referenceS recomputes S for a pair from first principles, walking the
// primary paths.
func (m *Manager) referenceS(a, b *DConnection) float64 {
	return reliability.SimultaneousActivation(
		m.plan.cfg.Lambda,
		a.Primary.Path.NumComponents(),
		b.Primary.Path.NumComponents(),
		sharedComponents(a.Primary.Path, b.Primary.Path),
	)
}

// requireSigMatchesPaths holds the slab against the paths it summarises:
// checkSig's structural audit (rows equal a rebuild from conn.Primary, mux
// entries carry their connection's row, free rows zero and disjoint from live
// ones), and — since that rebuild goes through writeSig itself — popcount-sc
// and the table-backed S against the path-walking reference for random pairs.
func requireSigMatchesPaths(t *testing.T, ctx string, m *Manager, rng *rand.Rand) {
	t.Helper()
	if err := m.plan.checkSig(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	var withPrimary []*DConnection
	for _, c := range m.Connections() {
		if c.Primary != nil {
			withPrimary = append(withPrimary, c)
		}
	}
	for i := 0; i < 8 && len(withPrimary) > 0; i++ {
		a := withPrimary[rng.Intn(len(withPrimary))]
		b := withPrimary[rng.Intn(len(withPrimary))]
		ra, rb := m.plan.sigRow(a.sig), m.plan.sigRow(b.sig)
		if got, want := sigShared(ra, rb), sharedComponents(a.Primary.Path, b.Primary.Path); got != want {
			t.Fatalf("%s: sc(%d,%d) = %d from rows, %d from paths", ctx, a.ID, b.ID, got, want)
		}
		if got, want := m.plan.simS(int(ra[0]), int(rb[0]), sigShared(ra, rb)), m.referenceS(a, b); got != want {
			t.Fatalf("%s: S(%d,%d) = %v from rows, reference %v", ctx, a.ID, b.ID, got, want)
		}
	}
}

// TestPrimarySignatureMatchesPaths drives seeded establish / rejected
// establish / teardown / failover / rejoin / replenish histories and audits
// the slab after every step. The tight torus packs node and link bits into
// one word with the boundary inside it and rejects and rolls back often; the
// 256-node mesh has 20-word rows.
func TestPrimarySignatureMatchesPaths(t *testing.T) {
	topos := []struct {
		name string
		g    func() *topology.Graph
		ops  int
	}{
		{"torus3x3", func() *topology.Graph { return topology.NewTorus(3, 3, 6) }, 600},
		{"mesh16x16", func() *topology.Graph { return topology.NewMesh(16, 16, 8) }, 300},
	}
	for _, tp := range topos {
		for seed := int64(1); seed <= 3; seed++ {
			tp, seed := tp, seed
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := tp.g()
				m := NewManager(g, DefaultConfig())
				m.SetCoalescedReconfig(seed%2 == 0)
				if want := 1 + (g.NumNodes()+g.NumLinks()+63)/64; m.plan.sigStride != want {
					t.Fatalf("stride %d, want %d", m.plan.sigStride, want)
				}
				n := g.NumNodes()
				var ids []rtchan.ConnID
				pick := func() *DConnection {
					for len(ids) > 0 {
						i := rng.Intn(len(ids))
						if c := m.Connection(ids[i]); c != nil {
							return c
						}
						ids[i] = ids[len(ids)-1]
						ids = ids[:len(ids)-1]
					}
					return nil
				}
				done := map[string]int{}
				noAvoid := func(topology.LinkID) bool { return false }
				for op := 0; op < tp.ops; op++ {
					kind := "establish"
					if len(ids) > 4 {
						kind = []string{"establish", "establish", "reject", "teardown", "failover",
							"recover", "rejoin", "replenish"}[rng.Intn(8)]
					}
					conn := pick()
					switch kind {
					case "establish":
						src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
						degrees := []int{1 + rng.Intn(6), 1 + rng.Intn(6)}[:1+rng.Intn(2)]
						if c, err := m.Establish(src, dst, defaultBatchSpec(rng), degrees); err == nil {
							ids = append(ids, c.ID)
						} else {
							kind = "establish-rejected"
						}
					case "reject":
						// The primary fits; the backup on the same path needs as
						// much spare again, which the link can seldom hold: a
						// rollback after the row was handed out and written.
						l := g.Links()[rng.Intn(g.NumLinks())]
						path := linkPathT(t, g, l.ID)
						spec := rtchan.TrafficSpec{Bandwidth: math.Floor(m.plan.net.Free(l.ID)/2) + 1}
						if c, err := m.EstablishOnPaths(spec, path, []topology.Path{path}, []int{3}); err == nil {
							// The link's pool already covered it: multiplexed in.
							ids = append(ids, c.ID)
							kind = "reject-admitted"
						}
					case "teardown":
						if err := m.Teardown(conn.ID); err != nil {
							t.Fatalf("op %d: %v", op, err)
						}
					case "failover":
						// The protocol-plane sequence: the primary is lost, a
						// backup's links are claimed, and it is promoted.
						if conn.Primary == nil || len(conn.Backups) == 0 {
							continue
						}
						if err := m.TeardownChannel(conn.ID, conn.Primary.ID); err != nil {
							t.Fatalf("op %d: %v", op, err)
						}
						requireSigMatchesPaths(t, fmt.Sprintf("op %d primary lost", op), m, rng)
						b := conn.Backups[0]
						if i, ok := m.ClaimBatch(b.Path.Links(), b.ID, b.Bandwidth()); !ok {
							m.ReleaseClaimBatch(b.Path.Links()[:i], b.ID)
							kind = "failover-unclaimed"
						} else if err := m.ActivateClaimed(conn.ID, b); err != nil {
							t.Fatalf("op %d: %v", op, err)
						}
					case "recover":
						// A component fails and every affected connection
						// recovers through the claim API: winners are
						// promoted, failed channels dropped, orphans forgotten.
						f := SingleLink(topology.LinkID(rng.Intn(g.NumLinks())))
						if rng.Intn(2) == 0 {
							f = SingleNode(topology.NodeID(rng.Intn(n)))
						}
						recoverByClaims(t, m, f, deadFirst)
					case "rejoin":
						if conn.Primary == nil {
							continue
						}
						if err := m.RestoreAsBackup(conn.ID, conn.Primary.ID, 1+rng.Intn(3)); err != nil {
							kind = "rejoin-rejected"
						}
					case "replenish":
						if conn.Primary == nil {
							continue
						}
						if _, err := m.ReplenishBackups(conn.ID, 1+rng.Intn(2), 1+rng.Intn(3), noAvoid); err != nil {
							t.Fatalf("op %d: %v", op, err)
						}
					}
					done[kind]++
					requireSigMatchesPaths(t, fmt.Sprintf("op %d %s", op, kind), m, rng)
				}
				t.Logf("history: %v", done)
				for _, kind := range []string{"establish", "reject", "teardown", "failover", "recover", "rejoin", "replenish"} {
					if done[kind] == 0 {
						t.Errorf("history never ran a %s (%v)", kind, done)
					}
				}
				for conn := pick(); conn != nil; conn = pick() {
					if err := m.Teardown(conn.ID); err != nil {
						t.Fatal(err)
					}
				}
				requireSigMatchesPaths(t, "drained", m, rng)
				if free, rows := len(m.plan.sigFree), len(m.plan.sig)/m.plan.sigStride; free != rows {
					t.Fatalf("drained plan has %d of %d rows free", free, rows)
				}
			})
		}
	}
}

// TestSignatureSlabBounded pins what the free list buys: under establish /
// teardown churn the slab stays at its peak-live size and nothing in the plan
// grows with the number of connection or channel ids ever minted.
func TestSignatureSlabBounded(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := NewManager(g, DefaultConfig())
	spec := rtchan.DefaultSpec()
	rng := rand.New(rand.NewSource(1))
	var live []rtchan.ConnID
	cycle := func() {
		src, dst := rng.Intn(16), rng.Intn(15)
		if dst >= src {
			dst++
		}
		conn, err := m.Establish(topology.NodeID(src), topology.NodeID(dst), spec, []int{3})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, conn.ID)
		if len(live) > 32 {
			i := rng.Intn(len(live))
			if err := m.Teardown(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	rows, heapBefore := len(m.plan.sig), heap()
	for i := 1000; i < 50000; i++ {
		cycle()
	}
	if got := len(m.plan.sig); got != rows {
		t.Fatalf("slab grew from %d to %d words under steady churn", rows, got)
	}
	if want := 33 * m.plan.sigStride; rows != want {
		t.Fatalf("slab holds %d words, want %d (peak 33 live)", rows, want)
	}
	// The per-ConnID epochs and per-ChannelID memo arrays this replaced grew
	// by ~1.5 MB over the same run; a flat by-id slice in place of the paged
	// conns and channels tables would grow by 1.2 MB.
	const tolerance = 32 << 10
	heapAfter := heap()
	t.Logf("live heap %d -> %d bytes over 49000 cycles", heapBefore, heapAfter)
	if heapAfter > heapBefore+tolerance {
		t.Fatalf("live heap grew from %d to %d bytes over 49000 cycles", heapBefore, heapAfter)
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	// The table's ascending walk lists the survivors in establishment order.
	conns := m.Connections()
	if len(conns) != len(live) {
		t.Fatalf("%d connections listed for %d live", len(conns), len(live))
	}
	for i := 1; i < len(conns); i++ {
		if conns[i-1].ID >= conns[i].ID {
			t.Fatalf("Connections() out of establishment order at %d: %d then %d", i, conns[i-1].ID, conns[i].ID)
		}
	}
}

// TestSimSBitIdentical holds the table-backed S against the reference formula
// to the bit: every Π decision is a comparison of S with a threshold.
func TestSimSBitIdentical(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	for ci := 3; ci <= 31; ci += 2 {
		for cj := 3; cj <= 31; cj += 2 {
			for sc := 0; sc <= min(ci, cj); sc++ {
				got := m.plan.simS(ci, cj, sc)
				want := reliability.SimultaneousActivation(m.plan.cfg.Lambda, ci, cj, sc)
				if got != want || math.Signbit(got) != math.Signbit(want) {
					t.Fatalf("S(%d,%d,%d) = %v, reference %v", ci, cj, sc, got, want)
				}
			}
		}
	}
}

// TestEstablishOnPathsRejectsBadPaths is the regression test for two ways a
// caller-supplied backup path used to get past validation: the zero Path
// panicked at Source() after the primary had been reserved, and a path over
// another graph was accepted, its ids indexing this graph's tables.
func TestEstablishOnPathsRejectsBadPaths(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	other := topology.NewMesh(3, 3, 10)
	foreign, err := topology.PathBetween(other, []topology.NodeID{0, 3, 4, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	foreignPrimary, err := topology.PathBetween(other, []topology.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		primary topology.Path
		backups []topology.Path
	}{
		{"zero backup", path(0, 1, 2), []topology.Path{path(0, 3, 4, 5, 2), {}}},
		{"foreign backup", path(0, 1, 2), []topology.Path{foreign}},
		{"foreign primary", foreignPrimary, []topology.Path{path(0, 3, 4, 5, 2)}},
	}
	for _, tc := range cases {
		degrees := make([]int, len(tc.backups))
		if _, err := m.EstablishOnPaths(spec1(), tc.primary, tc.backups, degrees); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if m.NumConnections() != 0 || m.plan.net.NumChannels() != 0 {
			t.Fatalf("%s: rejection left state behind", tc.name)
		}
		for _, l := range g.Links() {
			if d := m.plan.net.Dedicated(l.ID); d != 0 {
				t.Fatalf("%s: link %d still has %g reserved", tc.name, l.ID, d)
			}
		}
		if err := m.CheckMuxInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestPiThresholdExact holds the integer Π decision to the floating-point
// rule it replaces, exhaustively on the 8x8 torus: for every pair of odd
// component counts a simple path there can have, every overlap the pair can
// have, and every pair of degrees 0–8, each side counts the other iff
// sc ≥ its threshold iff the reference formula says S ≥ ν and the other
// side's ν is no greater (the §3.2 degree restriction). A primary-less
// side (count 0) counts and is counted unconditionally.
func TestPiThresholdExact(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	maxC := 2*g.NumNodes() - 1
	const degrees = 9
	for _, lambda := range []float64{1e-4, 1e-3, 1e-6, 0.3} {
		cfg := DefaultConfig()
		cfg.Lambda = lambda
		p := &NewManager(g, cfg).plan
		var cls [degrees]int32
		var nu [degrees]float64
		for a := range cls {
			cls[a], nu[a] = p.degreeClass(a), reliability.NuForDegree(lambda, a)
		}
		atAlpha := 0 // cells of degree 3 whose threshold is 3
		var ke, kn [degrees * degrees]int
		for ce := 1; ce <= maxC; ce += 2 {
			for cn := 1; cn <= maxC; cn += 2 {
				for ae := range cls {
					for an := range cls {
						ke[ae*degrees+an], kn[ae*degrees+an] = p.pairThresholds(ce, cn, cls[ae], cls[an])
					}
				}
				if ke[3*degrees+3] == 3 {
					atAlpha++
				}
				for sc := 0; sc <= min(ce, cn); sc++ {
					s := reliability.SimultaneousActivation(lambda, ce, cn, sc)
					for ae := range cls {
						for an := range cls {
							i := ae*degrees + an
							wantE := nu[an] <= nu[ae] && s >= nu[ae]
							wantN := nu[ae] <= nu[an] && s >= nu[an]
							if (sc >= ke[i]) != wantE || (sc >= kn[i]) != wantN {
								t.Fatalf("λ=%g c=(%d,%d) sc=%d α=(%d,%d): thresholds (%d,%d) decide (%v,%v), reference S=%v decides (%v,%v)",
									lambda, ce, cn, sc, ae, an, ke[i], kn[i], sc >= ke[i], sc >= kn[i], s, wantE, wantN)
							}
						}
					}
				}
			}
		}
		for a := range cls {
			if ke, kn := p.pairThresholds(0, 7, cls[a], cls[(a+1)%degrees]); ke != 0 || kn != 0 {
				t.Fatalf("λ=%g: primary-less side gets thresholds (%d,%d), want (0,0)", lambda, ke, kn)
			}
			for _, k := range p.thrRow(cls[a], 0) {
				if k != 0 {
					t.Fatalf("λ=%g α=%d: the row for a primary-less new side holds %d", lambda, a, k)
				}
			}
		}
		if lambda == 1e-4 {
			t.Logf("λ=1e-4: K = α at α = 3 for %d of %d cells", atAlpha, (maxC+1)*(maxC+1)/4)
		}
	}
}

// randomSimplePath returns the node sequence of a simple path that contains
// a random stretch of base (reversed or not) when base is non-empty, grown at
// both ends by self-avoiding random walks; from a random node otherwise. Every
// link of the mesh and torus has a reverse, so a reversed path is a path.
func randomSimplePath(g *topology.Graph, rng *rand.Rand, base []topology.NodeID, maxHops int) []topology.NodeID {
	var nodes []topology.NodeID
	if len(base) > 0 {
		i := rng.Intn(len(base))
		j := i + 1 + rng.Intn(len(base)-i)
		nodes = append(nodes, base[i:j]...)
	} else {
		nodes = append(nodes, topology.NodeID(rng.Intn(g.NumNodes())))
	}
	on := make(map[topology.NodeID]bool, len(nodes))
	for _, n := range nodes {
		on[n] = true
	}
	walk := func() {
		for h := rng.Intn(maxHops/2 + 1); h > 0; h-- {
			var next []topology.NodeID
			for _, l := range g.Out(nodes[len(nodes)-1]) {
				if to := g.Link(l).To; !on[to] {
					next = append(next, to)
				}
			}
			if len(next) == 0 {
				return
			}
			n := next[rng.Intn(len(next))]
			nodes, on[n] = append(nodes, n), true
		}
	}
	walk()
	slices.Reverse(nodes)
	walk()
	if rng.Intn(2) == 0 {
		slices.Reverse(nodes)
	}
	if len(nodes) == 1 { // a path has at least one hop
		nodes = append(nodes, g.Link(g.Out(nodes[0])[0]).To)
	}
	return nodes
}

// checkSharedAtLeast holds sharedAtLeast to the full popcount for the rows
// of two simple paths at every k, and checks that outside sn < k ≤ 2sn-1 the
// node words decide alone: with every link bit of one row set, the answer
// must not move. It reports whether the paths share a link.
func checkSharedAtLeast(t *testing.T, p *NetworkPlan, an, bn []topology.NodeID) bool {
	t.Helper()
	g := p.net.Graph()
	row := func(nodes []topology.NodeID) []uint64 {
		path, err := topology.PathBetween(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		r := make([]uint64, p.sigStride)
		p.writeSig(r, path.Links(), path.Nodes())
		return r
	}
	a, b := row(an), row(bn)
	poisoned := slices.Clone(b)
	for l := 0; l < g.NumLinks(); l++ {
		i := g.NumNodes() + l
		poisoned[1+i>>6] |= 1 << (uint(i) & 63)
	}
	sc, sn := sigShared(a, b), 0
	for _, n := range an {
		if slices.Contains(bn, n) {
			sn++
		}
	}
	for k := 0; k <= int(min(a[0], b[0]))+2; k++ {
		if got, want := p.sharedAtLeast(a, b, k), sc >= k; got != want {
			t.Fatalf("sharedAtLeast(k=%d) = %v, sc = %d (sn %d)\n%v\n%v", k, got, sc, sn, an, bn)
		}
		if sn < k && k <= 2*sn-1 {
			continue
		}
		if got, want := p.sharedAtLeast(a, poisoned, k), sc >= k; got != want {
			t.Fatalf("sharedAtLeast(k=%d) read the link words outside the window: %v, sc = %d (sn %d)\n%v\n%v", k, got, sc, sn, an, bn)
		}
	}
	return sc > sn
}

// sharedAtLeastGraphs are the layouts the overlap test covers: node and link
// bits sharing word 1 (N = 16), one full node word (N = 64), and two node
// words, the second shared with links (N = 81).
func sharedAtLeastGraphs() []*NetworkPlan {
	var out []*NetworkPlan
	for _, g := range []*topology.Graph{topology.NewMesh(4, 4, 200), topology.NewTorus(8, 8, 200), topology.NewTorus(9, 9, 200)} {
		out = append(out, &NewManager(g, DefaultConfig()).plan)
	}
	return out
}

// TestSharedAtLeastMatchesPopcount runs checkSharedAtLeast over seeded pairs
// of simple paths: unrelated ones, and ones built around a stretch of the
// other, forwards or reversed, so overlaps of every size and both sides of
// the 2sn-1 bound occur.
func TestSharedAtLeastMatchesPopcount(t *testing.T) {
	for _, p := range sharedAtLeastGraphs() {
		rng := rand.New(rand.NewSource(1))
		window := 0
		for i := 0; i < 3000; i++ {
			a := randomSimplePath(p.net.Graph(), rng, nil, 24)
			var b []topology.NodeID
			if i%4 == 0 {
				b = randomSimplePath(p.net.Graph(), rng, nil, 24)
			} else {
				b = randomSimplePath(p.net.Graph(), rng, a, 24)
			}
			if checkSharedAtLeast(t, p, a, b) {
				window++
			}
		}
		t.Logf("N=%d: %d of 3000 pairs share a link", p.net.Graph().NumNodes(), window)
	}
}

// FuzzSharedAtLeast is TestSharedAtLeastMatchesPopcount with the seed and the
// graph drawn by the fuzzer.
func FuzzSharedAtLeast(f *testing.F) {
	plans := sharedAtLeastGraphs()
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, graph uint8) {
		p := plans[int(graph)%len(plans)]
		rng := rand.New(rand.NewSource(seed))
		a := randomSimplePath(p.net.Graph(), rng, nil, 32)
		base := a
		if rng.Intn(4) == 0 {
			base = nil
		}
		checkSharedAtLeast(t, p, a, randomSimplePath(p.net.Graph(), rng, base, 32))
	})
}
