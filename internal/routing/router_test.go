package routing

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/rtcl/bcp/internal/topology"
)

// This file checks the Router's arena-based searches against straightforward
// from-scratch reference implementations (the package's pre-Router code).
// The property corpus runs many queries through ONE Router per graph, so
// arena reuse, generation stamping, and the SPT cache are all exercised
// between comparisons. Every comparison demands
// byte-identical link sequences, not just equal lengths: the Router must
// preserve tie-breaking exactly.

// --- reference implementations (pre-Router code) ---

func refDistSlice(g *topology.Graph) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	return dist
}

func refDistance(g *topology.Graph, src, dst topology.NodeID, c Constraint) int {
	dist := refDistSlice(g)
	dist[src] = 0
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			return dist[n]
		}
		if c.MaxHops > 0 && dist[n] >= c.MaxHops {
			continue
		}
		for _, l := range g.Out(n) {
			if !c.linkOK(l) {
				continue
			}
			to := g.Link(l).To
			if dist[to] >= 0 {
				continue
			}
			if to != dst && !c.nodeOK(to) {
				continue
			}
			dist[to] = dist[n] + 1
			queue = append(queue, to)
		}
	}
	return -1
}

func refShortestPath(g *topology.Graph, src, dst topology.NodeID, c Constraint) (topology.Path, bool) {
	if src == dst {
		return topology.Path{}, false
	}
	dist := refDistSlice(g)
	dist[src] = 0
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			break
		}
		if c.MaxHops > 0 && dist[n] >= c.MaxHops {
			continue
		}
		for _, l := range g.Out(n) {
			if !c.linkOK(l) {
				continue
			}
			to := g.Link(l).To
			if dist[to] >= 0 {
				continue
			}
			if to != dst && !c.nodeOK(to) {
				continue
			}
			dist[to] = dist[n] + 1
			queue = append(queue, to)
		}
	}
	if dist[dst] < 0 {
		return topology.Path{}, false
	}
	links := make([]topology.LinkID, dist[dst])
	cur := dst
	for d := dist[dst]; d > 0; d-- {
		choice := topology.NoLink
		for _, l := range g.In(cur) {
			if !c.linkOK(l) {
				continue
			}
			from := g.Link(l).From
			if dist[from] != d-1 {
				continue
			}
			if from != src && !c.nodeOK(from) {
				continue
			}
			if choice == topology.NoLink || l < choice {
				choice = l
			}
		}
		links[d-1] = choice
		cur = g.Link(choice).From
	}
	p, err := topology.NewPath(g, links)
	if err != nil {
		panic("routing: reference backtrack built invalid path: " + err.Error())
	}
	return p, true
}

type refFlowEdge struct {
	to      int
	cap     int
	rev     int
	link    topology.LinkID
	forward bool
}

type refFlowNet struct {
	edges [][]refFlowEdge
}

func (f *refFlowNet) add(from, to, capacity int, link topology.LinkID) {
	f.edges[from] = append(f.edges[from], refFlowEdge{
		to: to, cap: capacity, rev: len(f.edges[to]), link: link, forward: true,
	})
	f.edges[to] = append(f.edges[to], refFlowEdge{
		to: from, cap: 0, rev: len(f.edges[from]) - 1, link: topology.NoLink, forward: false,
	})
}

func refAugment(net *refFlowNet, source, sink int) bool {
	type pred struct {
		node, idx int
	}
	preds := make([]pred, len(net.edges))
	for i := range preds {
		preds[i].node = -1
	}
	preds[source].node = source
	queue := []int{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == sink {
			break
		}
		for i, e := range net.edges[u] {
			if e.cap <= 0 || preds[e.to].node != -1 {
				continue
			}
			preds[e.to] = pred{node: u, idx: i}
			queue = append(queue, e.to)
		}
	}
	if preds[sink].node == -1 {
		return false
	}
	for v := sink; v != source; {
		p := preds[v]
		e := &net.edges[p.node][p.idx]
		e.cap--
		net.edges[v][e.rev].cap++
		v = p.node
	}
	return true
}

func refMaxDisjointPaths(g *topology.Graph, src, dst topology.NodeID, count int, c Constraint) []topology.Path {
	if src == dst || count <= 0 {
		return nil
	}
	n := g.NumNodes()
	inID := func(v topology.NodeID) int { return int(2 * v) }
	outID := func(v topology.NodeID) int { return int(2*v + 1) }
	net := &refFlowNet{edges: make([][]refFlowEdge, 2*n)}
	for v := topology.NodeID(0); int(v) < n; v++ {
		capV := 1
		switch {
		case v == src || v == dst:
			capV = count
		case !c.nodeOK(v):
			capV = 0
		}
		net.add(inID(v), outID(v), capV, topology.NoLink)
	}
	for _, l := range g.Links() {
		if !c.linkOK(l.ID) {
			continue
		}
		net.add(outID(l.From), inID(l.To), 1, l.ID)
	}

	source, sink := outID(src), inID(dst)
	flows := 0
	for flows < count && refAugment(net, source, sink) {
		flows++
	}
	if flows == 0 {
		return nil
	}

	usedOut := make([][]int, len(net.edges))
	for u := range net.edges {
		for i, e := range net.edges[u] {
			if e.forward && net.edges[e.to][e.rev].cap > 0 {
				for k := 0; k < net.edges[e.to][e.rev].cap; k++ {
					usedOut[u] = append(usedOut[u], i)
				}
			}
		}
	}
	paths := make([]topology.Path, 0, flows)
	for f := 0; f < flows; f++ {
		var links []topology.LinkID
		u := source
		for u != sink {
			if len(usedOut[u]) == 0 {
				break
			}
			i := usedOut[u][0]
			usedOut[u] = usedOut[u][1:]
			e := net.edges[u][i]
			if e.link != topology.NoLink {
				links = append(links, e.link)
			}
			u = e.to
		}
		if u != sink || len(links) == 0 {
			continue
		}
		if p, err := topology.NewPath(g, links); err == nil {
			paths = append(paths, p)
		}
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].Hops() < paths[j].Hops() })
	return paths
}

func refSequentialDisjointPaths(g *topology.Graph, src, dst topology.NodeID, count int, c Constraint) []topology.Path {
	var paths []topology.Path
	bannedLinks := map[topology.LinkID]bool{}
	bannedNodes := map[topology.NodeID]bool{}
	for i := 0; i < count; i++ {
		cc := c
		prevLink, prevNode := c.LinkAllowed, c.NodeAllowed
		cc.LinkAllowed = func(l topology.LinkID) bool {
			return !bannedLinks[l] && (prevLink == nil || prevLink(l))
		}
		cc.NodeAllowed = func(n topology.NodeID) bool {
			return !bannedNodes[n] && (prevNode == nil || prevNode(n))
		}
		p, ok := refShortestPath(g, src, dst, cc)
		if !ok {
			break
		}
		paths = append(paths, p)
		for _, l := range p.Links() {
			bannedLinks[l] = true
		}
		for _, n := range p.InteriorNodes() {
			bannedNodes[n] = true
		}
	}
	return paths
}

// --- property corpus ---

func samePath(a, b topology.Path) bool {
	al, bl := a.Links(), b.Links()
	if len(al) != len(bl) {
		return false
	}
	for i := range al {
		if al[i] != bl[i] {
			return false
		}
	}
	return true
}

func samePaths(a, b []topology.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePath(a[i], b[i]) {
			return false
		}
	}
	return true
}

// corpusGraphs builds the graph set the equivalence properties run on:
// the two evaluation networks plus random graphs of assorted sizes.
func corpusGraphs() []*topology.Graph {
	gs := []*topology.Graph{
		topology.NewTorus(6, 6, 100),
		topology.NewMesh(5, 7, 100),
		topology.NewRing(12, 50),
	}
	for seed := int64(1); seed <= 6; seed++ {
		n := 8 + int(seed)*5
		deg := 2.5 + float64(seed)*0.3
		gs = append(gs, topology.NewRandom(n, deg, 100, seed))
	}
	for seed := int64(1); seed <= 4; seed++ {
		gs = append(gs, oneWayGraph(6+int(seed)*6, seed))
	}
	return gs
}

// oneWayGraph is a directed cycle over n nodes with as many one-way chords,
// so the distance to a node is not the distance from it, plus a node nothing
// leads to (n) and a node that leads nowhere (n+1): an unreachable target
// and an unreachable source for every other node.
func oneWayGraph(n int, seed int64) *topology.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := topology.NewGraph("oneway", n+2)
	add := func(a, b int) { _, _ = g.AddLink(topology.NodeID(a), topology.NodeID(b), 100) } // duplicates and self-loops are skipped
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
		add(rng.Intn(n), rng.Intn(n))
	}
	add(n, 0)
	add(1, n+1)
	return g
}

// corpusConstraint derives a deterministic pseudo-random constraint from
// (graph, variant): possibly a hop bound, possibly link/node predicates,
// possibly a bitset exclusion. It returns the Router-side constraint and an
// equivalent closure-only constraint for the references.
func corpusConstraint(g *topology.Graph, variant int, rng *rand.Rand) (router, ref Constraint) {
	var c Constraint
	if variant&1 != 0 {
		c.MaxHops = 3 + rng.Intn(6)
	}
	if variant&2 != 0 {
		h := rng.Int63()
		c.LinkAllowed = func(l topology.LinkID) bool {
			return (int64(l)*2654435761+h)%7 != 0
		}
	}
	if variant&4 != 0 {
		h := rng.Int63()
		c.NodeAllowed = func(n topology.NodeID) bool {
			return (int64(n)*40503+h)%11 != 0
		}
	}
	router, ref = c, c
	if variant&8 != 0 {
		excl := NewExclusion()
		bannedLinks := map[topology.LinkID]bool{}
		bannedNodes := map[topology.NodeID]bool{}
		for i := 0; i < 3; i++ {
			l := topology.LinkID(rng.Intn(g.NumLinks()))
			excl.AddLink(l)
			bannedLinks[l] = true
		}
		n := topology.NodeID(rng.Intn(g.NumNodes()))
		excl.AddNode(n)
		bannedNodes[n] = true

		router = excl.Constrain(c)
		prevLink, prevNode := c.LinkAllowed, c.NodeAllowed
		ref.LinkAllowed = func(l topology.LinkID) bool {
			return !bannedLinks[l] && (prevLink == nil || prevLink(l))
		}
		ref.NodeAllowed = func(n topology.NodeID) bool {
			return !bannedNodes[n] && (prevNode == nil || prevNode(n))
		}
	}
	return router, ref
}

// compareSearches runs the constrained searches on r and on the references and
// demands the same distance and the same link sequence.
func compareSearches(t *testing.T, tag string, r *Router, src, dst topology.NodeID, cRouter, cRef Constraint) {
	t.Helper()
	g := r.Graph()
	if got, want := r.ShortestDistance(src, dst, cRouter), refDistance(g, src, dst, cRef); got != want {
		t.Fatalf("%s: ShortestDistance(%d,%d) = %d, want %d", tag, src, dst, got, want)
	}
	gp, gok := r.ShortestPath(src, dst, cRouter)
	wp, wok := refShortestPath(g, src, dst, cRef)
	if gok != wok || (gok && !samePath(gp, wp)) {
		t.Fatalf("%s: ShortestPath(%d,%d) = %v,%v want %v,%v", tag, src, dst, gp, gok, wp, wok)
	}
}

// TestRouterMatchesReference is the equivalence property: one Router per
// graph, reused across every query and compared against the from-scratch
// implementations on the same inputs. Link sequences must match exactly.
func TestRouterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for gi, g := range corpusGraphs() {
		r := NewRouter(g)
		for trial := 0; trial < 120; trial++ {
			src := topology.NodeID(rng.Intn(g.NumNodes()))
			dst := topology.NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			variant := rng.Intn(16)
			cRouter, cRef := corpusConstraint(g, variant, rng)
			tag := fmt.Sprintf("graph %d trial %d", gi, trial)

			// Unconstrained distance (distance-row path).
			h := r.Distance(src, dst)
			if want := refDistance(g, src, dst, Constraint{}); h != want {
				t.Fatalf("%s: Distance(%d,%d) = %d, want %d", tag, src, dst, h, want)
			}
			// Constrained searches (arena BFS path), first as drawn.
			compareSearches(t, tag, r, src, dst, cRouter, cRef)
			// Then at every hop bound around the search's starting bound
			// h(src): below it (gives up before labelling, right after a
			// search that labelled dst), at it, and one by one up past the
			// raises into the plain pass.
			drawn := cRouter.MaxHops
			for mh := max(h-1, 1); h > 0 && mh <= h+maxRaises+3; mh++ {
				cRouter.MaxHops, cRef.MaxHops = mh, mh
				compareSearches(t, fmt.Sprintf("%s MaxHops %d", tag, mh), r, src, dst, cRouter, cRef)
			}
			cRouter.MaxHops, cRef.MaxHops = drawn, drawn

			// Disjoint sets, both disciplines.
			count := 1 + rng.Intn(4)
			if got, want := disjointPaths(t, r, src, dst, count, cRouter), refMaxDisjointPaths(g, src, dst, count, cRef); !samePaths(got, want) {
				t.Fatalf("%s: DisjointLinks(%d,%d,%d) = %v want %v", tag, src, dst, count, got, want)
			}
			if got, want := r.SequentialDisjointPaths(src, dst, count, cRouter), refSequentialDisjointPaths(g, src, dst, count, cRef); !samePaths(got, want) {
				t.Fatalf("%s: SequentialDisjointPaths(%d,%d,%d) = %v want %v", tag, src, dst, count, got, want)
			}

			// Last, with dst itself excluded (end nodes are always allowed) and
			// then cut off: every link into it banned.
			if variant&8 != 0 {
				cRouter.Exclude.AddNode(dst)
				compareSearches(t, tag+" dst excluded", r, src, dst, cRouter, cRef)
				for _, l := range g.In(dst) {
					cRouter.Exclude.AddLink(l)
				}
				if d := r.ShortestDistance(src, dst, cRouter); d != -1 {
					t.Fatalf("%s: ShortestDistance(%d,%d) = %d with every in-link of dst excluded", tag, src, dst, d)
				}
				if _, ok := r.ShortestLinks(src, dst, cRouter); ok {
					t.Fatalf("%s: ShortestLinks(%d,%d) found a path into a cut-off dst", tag, src, dst)
				}
			}
		}
	}
}

// TestRouterSeesTopologyGrowth checks the epoch invalidation rule: a Router
// created before AddLink must observe the new link on its next query (the
// distance rows and arenas resize and recompute). The rows steer the
// constrained searches too, so a stale one would hide a newly reachable
// target from them, not just misreport its distance.
func TestRouterSeesTopologyGrowth(t *testing.T) {
	g := topology.NewLine(6, 100)
	r := NewRouter(g)
	if d := r.Distance(0, 5); d != 5 {
		t.Fatalf("line distance = %d, want 5", d)
	}
	if _, err := g.AddLink(0, 5, 100); err != nil {
		t.Fatal(err)
	}
	if d := r.Distance(0, 5); d != 1 {
		t.Fatalf("after shortcut, distance = %d, want 1 (stale distance row?)", d)
	}
	if p, ok := r.ShortestPath(0, 5, Constraint{}); !ok || p.Hops() != 1 {
		t.Fatalf("after shortcut, path = %v,%v, want the 1-hop path", p, ok)
	}

	g = topology.NewGraph("island", 4)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}} {
		if _, err := g.AddLink(e[0], e[1], 100); err != nil {
			t.Fatal(err)
		}
	}
	r = NewRouter(g)
	if _, ok := r.ShortestLinks(0, 3, Constraint{}); ok {
		t.Fatal("found a path to an island")
	}
	if _, err := g.AddLink(2, 3, 100); err != nil {
		t.Fatal(err)
	}
	if links, ok := r.ShortestLinks(0, 3, Constraint{}); !ok || len(links) != 3 {
		t.Fatalf("after the bridge, links = %v,%v, want the 3-hop path (stale distance row?)", links, ok)
	}
	if d := r.ShortestDistance(0, 3, Constraint{MaxHops: 3}); d != 3 {
		t.Fatalf("after the bridge, ShortestDistance = %d, want 3", d)
	}
}

// TestRouterGiveUpLabelsNothing pins the stamp rule of the early exits: a
// search that gives up before its first pass (hop bound below the
// unconstrained distance, or no way to the target at all) must not read the
// labels the previous search left on the same target.
func TestRouterGiveUpLabelsNothing(t *testing.T) {
	g := topology.NewGraph("fork", 4) // 0 -> 1 -> 2, and 3 -> 0; nothing leads to 3
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {3, 0}} {
		if _, err := g.AddLink(e[0], e[1], 100); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRouter(g)
	if d := r.ShortestDistance(0, 2, Constraint{}); d != 2 {
		t.Fatalf("ShortestDistance(0,2) = %d, want 2", d)
	}
	if d := r.ShortestDistance(0, 2, Constraint{MaxHops: 1}); d != -1 {
		t.Fatalf("ShortestDistance(0,2) within 1 hop = %d, want -1", d)
	}
	if _, ok := r.ShortestLinks(3, 0, Constraint{}); !ok {
		t.Fatal("no path 3->0")
	}
	if _, ok := r.ShortestLinks(2, 0, Constraint{}); ok {
		t.Fatal("found a path 2->0: the previous search's label on 0 was read")
	}
	want := Stats{Searches: 2, Labelled: 5}
	if got := r.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v: the two give-ups are not searches", got, want)
	}
}

// FuzzRouterMatchesReference drives the constrained searches of one Router
// against the reference BFS on a fuzzer-chosen directed graph, pair, exclusion
// and hop bound. The same Router first answers an unconstrained query to the
// same target, so every early exit runs with that target freshly labelled.
func FuzzRouterMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(5), uint64(0), uint8(0))
	f.Add(int64(2), uint8(7), uint8(27), uint64(0xf0f0), uint8(4))
	f.Add(int64(3), uint8(3), uint8(19), ^uint64(0), uint8(9))
	f.Fuzz(func(t *testing.T, graphSeed int64, s, d uint8, exclBits uint64, maxHops uint8) {
		g := oneWayGraph(4+int(uint64(graphSeed)%28), graphSeed)
		src, dst := topology.NodeID(int(s)%g.NumNodes()), topology.NodeID(int(d)%g.NumNodes())
		if src == dst {
			return
		}
		// Bit i of exclBits bans link i (mod the link count); the top byte
		// bans nodes the same way.
		excl := NewExclusion()
		bannedLinks := map[topology.LinkID]bool{}
		bannedNodes := map[topology.NodeID]bool{}
		for i := 0; i < 56; i++ {
			if exclBits&(1<<i) != 0 {
				l := topology.LinkID(i % g.NumLinks())
				excl.AddLink(l)
				bannedLinks[l] = true
			}
		}
		for i := 0; i < 8; i++ {
			if exclBits&(1<<(56+i)) != 0 {
				n := topology.NodeID((i * 5) % g.NumNodes())
				excl.AddNode(n)
				bannedNodes[n] = true
			}
		}
		cRouter := excl.Constrain(Constraint{MaxHops: int(maxHops)})
		cRef := Constraint{
			MaxHops:     int(maxHops),
			LinkAllowed: func(l topology.LinkID) bool { return !bannedLinks[l] },
			NodeAllowed: func(n topology.NodeID) bool { return !bannedNodes[n] },
		}
		r := NewRouter(g)
		compareSearches(t, "unconstrained", r, src, dst, Constraint{}, Constraint{})
		compareSearches(t, "constrained", r, src, dst, cRouter, cRef)
	})
}

// --- steady-state allocation guarantees ---

// TestRouterZeroAllocSteadyState pins the acceptance criterion: after one
// warm-up call, the scratch-backed searches allocate nothing per call.
func TestRouterZeroAllocSteadyState(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	r := NewRouter(g)
	src, dst := topology.NodeID(0), topology.NodeID(36)
	excl := NewExclusion()
	c := excl.Constrain(Constraint{})

	cases := []struct {
		name string
		fn   func()
	}{
		{"Distance", func() { r.Distance(src, dst) }},
		{"ShortestDistance", func() { r.ShortestDistance(src, dst, c) }},
		{"ShortestLinks", func() {
			if _, ok := r.ShortestLinks(src, dst, c); !ok {
				t.Fatal("no path")
			}
		}},
		{"DisjointLinks", func() {
			if got := r.DisjointLinks(src, dst, 2, c); len(got) != 2 {
				t.Fatalf("got %d disjoint link sets, want 2", len(got))
			}
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm up the arenas
		if avg := testing.AllocsPerRun(20, tc.fn); avg != 0 {
			t.Errorf("%s allocates %.1f/op in steady state, want 0", tc.name, avg)
		}
	}
}
