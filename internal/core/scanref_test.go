package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// refScanLink is the admission scan without the node-column filter: one
// muxDecide per entry, every entry, in index order. scanLink must return
// exactly what it returns — the same grow and pi lists and req — for any
// row, class and link state.
func (p *NetworkPlan) refScanLink(lm *linkMux, sigNew int32, rowNew []uint64, cls int32, bw float64, grow, pi *[]int32) float64 {
	g, q := *grow, *pi
	req := bw
	n := p.probe(rowNew, cls)
	for i := range lm.entries {
		e := &lm.entries[i]
		eCountsNew, newCountsE := true, true
		if e.sig != sigNew {
			eCountsNew, newCountsE = p.muxDecide(p.sigRow(e.sig), e.cls, &n)
		}
		if eCountsNew {
			g = append(g, int32(i))
		}
		if newCountsE {
			q = append(q, int32(i))
			req += e.bw
		}
	}
	*grow, *pi = g, q
	return req
}

// scatteredIDs are the node ids scatterTorus gives a 4x4 torus: pairs on both
// sides of every word boundary, and the graph's last id, whose word also
// holds the first link bits of a signature row.
var scatteredIDs = []topology.NodeID{0, 1, 63, 64, 100, 127, 128, 160, 191, 192, 220, 254, 255, 256, 258, 259}

// scatterTorus builds a 4x4 torus whose nodes carry scatteredIDs out of 260
// ids. The other 244 nodes are joined by a separate ladder of duplex links no
// core path reaches, which brings the graph to 1,200 components: a 20-word
// signature stride, 261 node columns per link.
func scatterTorus(capacity float64) *topology.Graph {
	g := topology.NewGraph(260)
	duplex := func(a, b topology.NodeID) {
		for _, l := range [][2]topology.NodeID{{a, b}, {b, a}} {
			if _, err := g.AddLink(l[0], l[1], capacity); err != nil {
				panic(err)
			}
		}
	}
	id := func(r, c int) topology.NodeID { return scatteredIDs[(r%4)*4+c%4] }
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			duplex(id(r, c), id(r, c+1))
			duplex(id(r, c), id(r+1, c))
		}
	}
	var rest []topology.NodeID
	for v := topology.NodeID(0); v < 260; v++ {
		if !slices.Contains(scatteredIDs, v) {
			rest = append(rest, v)
		}
	}
	for i := 0; g.NumNodes()+g.NumLinks() < 1200; i++ {
		duplex(rest[i%len(rest)], rest[(i+1+i/len(rest))%len(rest)])
	}
	return g
}

// scanGraph returns the graph a scan history runs on — a 3x3 torus (9 nodes,
// 36 links: a 2-word signature stride) or the scattered 4x4 torus (20 words)
// — with the nodes its connections join and the number of links, from id 0,
// that their paths can use.
func scanGraph(which int) (*topology.Graph, []topology.NodeID, int) {
	if which%2 == 0 {
		g := topology.NewTorus(3, 3, 1e6)
		nodes := make([]topology.NodeID, g.NumNodes())
		for i := range nodes {
			nodes[i] = topology.NodeID(i)
		}
		return g, nodes, g.NumLinks()
	}
	return scatterTorus(1e6), scatteredIDs, 64
}

// randomWalkPath walks from a random node of nodes for up to maxHops links
// without revisiting a node, and returns the walk's links and nodes (at least
// one link).
func randomWalkPath(rng *rand.Rand, g *topology.Graph, nodes []topology.NodeID, maxHops int) ([]topology.LinkID, []topology.NodeID) {
	for {
		cur := nodes[rng.Intn(len(nodes))]
		seen := map[topology.NodeID]bool{cur: true}
		var links []topology.LinkID
		pathNodes := []topology.NodeID{cur}
		for len(links) < maxHops {
			var next []topology.LinkID
			for _, l := range g.Out(cur) {
				if !seen[g.Link(l).To] {
					next = append(next, l)
				}
			}
			if len(next) == 0 {
				break
			}
			l := next[rng.Intn(len(next))]
			cur = g.Link(l).To
			seen[cur] = true
			links = append(links, l)
			pathNodes = append(pathNodes, cur)
		}
		if len(links) > 0 {
			return links, pathNodes
		}
	}
}

// scanChecker compares scanLink with refScanLink on one manager.
type scanChecker struct {
	m                  *Manager
	nodes              []topology.NodeID
	links              int // the links paths use are 0..links-1
	row                []uint64
	grow, pi, rg, rpi  []int32
	probes, candidates int
	filtered           int // probes whose scan could skip entries (K > 0)
	peak               int // the most entries a link held
	// minDegree is the least degree the history draws: 1 until degree 0 is
	// let in, because a degree-0 class (ν < 0, every threshold 0) has K = 0,
	// so its probes scan every entry.
	minDegree int
}

// degree draws a multiplexing degree in minDegree..max.
func (c *scanChecker) degree(rng *rand.Rand, max int) int {
	return c.minDegree + rng.Intn(max+1-c.minDegree)
}

// probe scans a random link with a random new side — an existing
// connection's row under its own index (a primary-less one included), a
// random simple path's row or the all-zero row as a planned connection, a
// random degree in 0..4 and bandwidth 1..3 — through both scans, and fails
// on any difference.
func (c *scanChecker) probe(t *testing.T, ctx string, rng *rand.Rand) {
	t.Helper()
	p := &c.m.plan
	g := p.net.Graph()
	lm := &p.mux[rng.Intn(c.links)]
	sigNew, row := int32(-1), c.row
	conns := c.m.Connections()
	switch r := rng.Intn(8); {
	case r < 3 && len(conns) > 0:
		sigNew = conns[rng.Intn(len(conns))].sig
		row = p.sigRow(sigNew)
	case r < 7:
		links, nodes := randomWalkPath(rng, g, c.nodes, 1+rng.Intn(6))
		p.writeSig(row, links, nodes)
	default:
		clear(row)
	}
	cls := p.degreeClass(c.degree(rng, 4))
	bw := float64(1 + rng.Intn(3))
	c.rg, c.rpi = c.rg[:0], c.rpi[:0]
	wantReq := p.refScanLink(lm, sigNew, row, cls, bw, &c.rg, &c.rpi)
	c.grow, c.pi = c.grow[:0], c.pi[:0]
	req := p.scanLink(lm, sigNew, row, cls, bw, &c.grow, &c.pi)
	if req != wantReq || !slices.Equal(c.grow, c.rg) || !slices.Equal(c.pi, c.rpi) {
		t.Fatalf("%s: scan of %d entries (row count %d, ν %g, own row %d) gives req %g grow %v pi %v; the full scan req %g grow %v pi %v",
			ctx, len(lm.entries), row[0], p.thr.nus[cls], sigNew, req, c.grow, c.pi, wantReq, c.rg, c.rpi)
	}
	c.probes++
	if len(c.rg)+len(c.rpi) > 0 {
		c.candidates++
	}
	if len(lm.entries) > 0 && p.probe(row, cls).shared > 0 {
		c.filtered++
	}
}

// runScanHistory drives a manager on scanGraph(graph) through steps random
// writer operations — establish (degrees 0..3, some requests with none),
// teardown, recovery from a link or node failure through the claim API
// (recoverByClaims: promotion and drops), loss of a
// primary, RestoreAsBackup of a live primary, ActivateClaimed, replenish,
// EstablishOnPaths with two backups sharing links, and a link rebuild — and
// between them probes scanLink against refScanLink and audits the node
// columns (CheckMuxInvariants). It returns the checker for its counts.
func runScanHistory(t *testing.T, graph int, seed int64, steps int) *scanChecker {
	t.Helper()
	g, nodes, links := scanGraph(graph)
	m := NewManager(g, DefaultConfig())
	c := &scanChecker{m: m, nodes: nodes, links: links, row: make([]uint64, m.plan.sigStride), minDegree: 1}
	// Odd seeds let degree 0 in halfway; even seeds never do.
	zeroAt := steps
	if seed%2 != 0 {
		zeroAt = steps / 2
	}
	rng := rand.New(rand.NewSource(seed))
	randConn := func() *DConnection {
		conns := m.Connections()
		if len(conns) == 0 {
			return nil
		}
		return conns[rng.Intn(len(conns))]
	}
	degrees := func(n int) []int {
		d := make([]int, n)
		for i := range d {
			d[i] = c.degree(rng, 3)
		}
		return d
	}
	spec := rtchan.TrafficSpec{Bandwidth: 1}
	// The population swings between a crowd and a few, so links fill past
	// 64 entries and drain again. Below its target a step establishes nine
	// times in ten: a node failure tears down a share of the crowd at once,
	// and at four in five the small torus's peak stayed at or under 64 on
	// half of seeds 1–6.
	crowd := []int{800, 300}[graph%2]
	for step := 0; step < steps; step++ {
		ctx := fmt.Sprintf("graph %d seed %d step %d", graph, seed, step)
		if step == zeroAt {
			c.minDegree = 0
		}
		target := []int{crowd, crowd / 10}[step/400%2]
		conn := randConn()
		switch r := rng.Intn(20); {
		case r < 7 || conn == nil || (m.NumConnections() < target && rng.Intn(10) > 0):
			src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			_, _ = m.Establish(src, dst, spec, degrees([]int{0, 1, 2, 2, 3}[rng.Intn(5)]))
		case r < 9 || m.NumConnections() > target && rng.Intn(2) == 0:
			if err := m.Teardown(conn.ID); err != nil {
				t.Fatalf("%s: teardown: %v", ctx, err)
			}
		case r == 9 && rng.Intn(8) == 0:
			f := SingleLink(topology.LinkID(rng.Intn(links)))
			if rng.Intn(2) == 0 {
				f = SingleNode(nodes[rng.Intn(len(nodes))])
			}
			recoverByClaims(t, m, f, deadFirst)
		case r == 10 && conn.Primary != nil:
			if err := m.TeardownChannel(conn.ID, conn.Primary.ID); err != nil {
				t.Fatalf("%s: primary loss: %v", ctx, err)
			}
		case r == 11 && conn.Primary != nil:
			_ = m.RestoreAsBackup(conn.ID, conn.Primary.ID, c.degree(rng, 3))
		case r == 12 && len(conn.Backups) > 0:
			_ = m.ActivateClaimed(conn.ID, conn.Backups[rng.Intn(len(conn.Backups))])
		case r == 13 && conn.Primary != nil:
			if _, err := m.ReplenishBackups(conn.ID, 1+rng.Intn(2), c.degree(rng, 3), nil); err != nil {
				t.Fatalf("%s: replenish: %v", ctx, err)
			}
		case r < 16 && conn.Primary != nil:
			// A second connection over conn's paths, its two backups on one
			// path: the second scan meets the first backup's entries.
			prim := conn.Primary.Path
			b := prim
			if len(conn.Backups) > 0 && rng.Intn(2) == 0 {
				b = conn.Backups[0].Path
			}
			backups := []topology.Path{b, b}
			if rng.Intn(3) == 0 {
				backups[0] = prim
			}
			_, _ = m.EstablishOnPaths(spec, prim, backups, degrees(2))
		case r == 16:
			func() {
				defer m.beginWrite()()
				l := topology.LinkID(rng.Intn(links))
				m.recomputeLinkMux(l)
				m.settle(l)
			}()
		}
		for n := rng.Intn(4); n > 0; n-- {
			c.probe(t, ctx, rng)
		}
		for l := range m.plan.mux {
			c.peak = max(c.peak, len(m.plan.mux[l].entries))
		}
		if step%10 == 0 {
			if err := m.CheckMuxInvariants(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatalf("graph %d seed %d: %v", graph, seed, err)
	}
	return c
}

// TestScanMatchesFullScan runs seeded scan histories on both signature
// strides and requires every probe to match the full scan; it also checks
// that the histories reached links the filter has work on.
func TestScanMatchesFullScan(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for graph := 0; graph < 2; graph++ {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("graph%d/seed%d", graph, seed), func(t *testing.T) {
				c := runScanHistory(t, graph, seed, 1200)
				if c.probes < 500 || c.candidates < c.probes/4 || c.filtered < c.probes/4 {
					t.Fatalf("%d probes, %d with a Π decision, %d filtered: the history is too thin", c.probes, c.candidates, c.filtered)
				}
				if graph%2 == 0 && c.peak <= 64 {
					t.Fatalf("no link of the small torus passed 64 entries (peak %d)", c.peak)
				}
			})
		}
	}
}

// FuzzScanMatchesFullScan is TestScanMatchesFullScan with the graph, the
// seed and the history length drawn by the fuzzer.
func FuzzScanMatchesFullScan(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(seed), uint8(60*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, graph, steps uint8) {
		runScanHistory(t, int(graph), seed, int(steps))
	})
}

// TestLeastThresholdIsTheRowMinimum holds a probe's K to its definition, the
// least entry over ce ≥ 1 of the new backup's own class row for cn, read by
// walking that row, on the 8x8 torus with classes registered out of order
// and one added between reads: the probe's node floor must be min(K, 2). It
// also holds the floor exact-safe: against a new primary of cn ≥ 1
// components, neither side of a pair with an existing primary of any count
// ce ≥ 1 and any class counts the other below an overlap of K.
func TestLeastThresholdIsTheRowMinimum(t *testing.T) {
	m := NewManager(topology.NewTorus(8, 8, 1e6), DefaultConfig())
	p := &m.plan
	check := func(ctx string) {
		t.Helper()
		row := make([]uint64, p.sigStride)
		for cls := range p.thr.nus {
			for cn := 0; cn < 2*p.sigNodes; cn++ {
				want := 0
				if cn > 0 {
					want = 1 << 16
					for _, k := range p.thrRow(int32(cls), cn)[1:] {
						want = min(want, int(k))
					}
				}
				row[0] = uint64(cn)
				if got := p.probe(row, int32(cls)).shared; got != min(want, 2) {
					t.Fatalf("%s: class %d cn %d: node floor %d, want min(%d, 2)", ctx, cls, cn, got, want)
				}
				for eCls := range p.thr.nus {
					for ce := 1; cn > 0 && ce < 2*p.sigNodes; ce++ {
						if ke, kn := p.pairThresholds(ce, cn, int32(eCls), int32(cls)); min(ke, kn) < want {
							t.Fatalf("%s: class %d cn %d against class %d ce %d: thresholds %d, %d below K %d",
								ctx, cls, cn, eCls, ce, ke, kn, want)
						}
					}
				}
			}
		}
	}
	for _, alpha := range []int{3, 1} {
		p.degreeClass(alpha)
	}
	check("degrees 3, 1")
	p.degreeClass(0)
	check("degrees 3, 1, 0")
}
