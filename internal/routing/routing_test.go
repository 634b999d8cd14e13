package routing

import (
	"fmt"
	"testing"

	"github.com/rtcl/bcp/internal/topology"
)

func TestDistanceTorus(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	// Same node row: wrap-around makes distance min(d, 8-d).
	cases := []struct {
		a, b topology.NodeID
		want int
	}{
		{0, 1, 1},
		{0, 7, 1},  // wrap in the row
		{0, 4, 4},  // half the dimension
		{0, 56, 1}, // wrap in the column
		{0, 36, 8}, // (4,4): 4+4
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := NewRouter(g).Distance(c.a, c.b); got != c.want && !(c.a == c.b && got == 0) {
			if c.a == c.b {
				continue
			}
			t.Errorf("Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceUnreachable(t *testing.T) {
	g := topology.NewGraph(4)
	if _, err := g.AddLink(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if d := NewRouter(g).Distance(0, 3); d != -1 {
		t.Fatalf("Distance to unreachable = %d, want -1", d)
	}
}

func TestShortestPathBasic(t *testing.T) {
	g := topology.NewMesh(8, 8, 300)
	p, ok := NewRouter(g).ShortestPath(0, 63, Constraint{})
	if !ok {
		t.Fatal("no path found")
	}
	if p.Hops() != 14 {
		t.Fatalf("corner-to-corner mesh path = %d hops, want 14", p.Hops())
	}
	if p.Source() != 0 || p.Destination() != 63 {
		t.Fatal("wrong endpoints")
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := topology.NewMesh(2, 2, 10)
	if _, ok := NewRouter(g).ShortestPath(1, 1, Constraint{}); ok {
		t.Fatal("path to self should not exist")
	}
}

func TestShortestPathRespectsLinkConstraint(t *testing.T) {
	g := topology.NewRing(6, 10)
	// Block the clockwise 0->1 link; path 0->1 must go the long way around.
	blocked := g.LinkBetween(0, 1)
	c := Constraint{LinkAllowed: func(l topology.LinkID) bool { return l != blocked }}
	p, ok := NewRouter(g).ShortestPath(0, 1, c)
	if !ok {
		t.Fatal("no path")
	}
	if p.Hops() != 5 {
		t.Fatalf("hops = %d, want 5 (long way around)", p.Hops())
	}
	if p.ContainsLink(blocked) {
		t.Fatal("path uses blocked link")
	}
}

func TestShortestPathRespectsNodeConstraint(t *testing.T) {
	g := topology.NewMesh(3, 3, 10)
	// 0 1 2 / 3 4 5 / 6 7 8. Forbid center node 4: 1->7 must detour.
	c := Constraint{NodeAllowed: func(n topology.NodeID) bool { return n != 4 }}
	p, ok := NewRouter(g).ShortestPath(1, 7, c)
	if !ok {
		t.Fatal("no path")
	}
	if p.ContainsNode(4) {
		t.Fatal("path uses forbidden node")
	}
	if p.Hops() != 4 {
		t.Fatalf("hops = %d, want 4", p.Hops())
	}
	// Endpoint nodes are always allowed even if NodeAllowed rejects them.
	c2 := Constraint{NodeAllowed: func(n topology.NodeID) bool { return n != 1 && n != 7 }}
	if _, ok := NewRouter(g).ShortestPath(1, 7, c2); !ok {
		t.Fatal("constraint on endpoints must not block the search")
	}
}

func TestShortestPathMaxHops(t *testing.T) {
	g := topology.NewLine(6, 10)
	if _, ok := NewRouter(g).ShortestPath(0, 5, Constraint{MaxHops: 4}); ok {
		t.Fatal("path found despite hop bound")
	}
	if p, ok := NewRouter(g).ShortestPath(0, 5, Constraint{MaxHops: 5}); !ok || p.Hops() != 5 {
		t.Fatal("path within hop bound not found")
	}
}

func TestShortestPathDeterministicTieBreak(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	p1, _ := NewRouter(g).ShortestPath(0, 36, Constraint{})
	p2, _ := NewRouter(g).ShortestPath(0, 36, Constraint{})
	if p1.String() != p2.String() {
		t.Fatal("deterministic search returned different paths")
	}
}

func TestSequentialDisjointPathsTorus(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	paths := NewRouter(g).SequentialDisjointPaths(0, 36, 3, Constraint{})
	if len(paths) != 3 {
		t.Fatalf("got %d disjoint paths, want 3", len(paths))
	}
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if !disjoint(paths[i], paths[j]) {
				t.Fatalf("paths %d and %d are not component-disjoint", i, j)
			}
		}
	}
	if paths[0].Hops() != 8 {
		t.Fatalf("first path %d hops, want 8", paths[0].Hops())
	}
}

func TestSequentialDisjointPathsMeshCorner(t *testing.T) {
	g := topology.NewMesh(8, 8, 300)
	// A corner has degree 2: at most 2 disjoint paths exist.
	paths := NewRouter(g).SequentialDisjointPaths(0, 63, 3, Constraint{})
	if len(paths) != 2 {
		t.Fatalf("got %d disjoint paths from mesh corner, want 2", len(paths))
	}
}

func TestSequentialDisjointPathsLine(t *testing.T) {
	g := topology.NewLine(4, 10)
	paths := NewRouter(g).SequentialDisjointPaths(0, 3, 2, Constraint{})
	if len(paths) != 1 {
		t.Fatalf("line should admit exactly 1 path, got %d", len(paths))
	}
}

// disjoint reports whether two paths between the same end nodes could be
// channels of one D-connection: they share no link and no interior node.
func disjoint(p, q topology.Path) bool {
	for _, l := range p.Links() {
		if q.ContainsLink(l) {
			return false
		}
	}
	for _, n := range p.InteriorNodes() {
		if q.ContainsNode(n) {
			return false
		}
	}
	return true
}

// disjointPaths is DisjointLinks with each link set made a Path.
func disjointPaths(t testing.TB, r *Router, src, dst topology.NodeID, count int, c Constraint) []topology.Path {
	t.Helper()
	var paths []topology.Path
	for _, links := range r.DisjointLinks(src, dst, count, c) {
		p, err := topology.NewPath(r.g, links)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestMaxDisjointPathsBeatsGreedyOnTrap(t *testing.T) {
	// Classic trap: greedy takes the short middle path, blocking both
	// remaining routes; flow finds two disjoint paths.
	//
	//     1   2
	//   /  \ /  \
	//  0    X    5      built explicitly below
	//   \  / \  /
	//     3   4
	g := topology.NewGraph(6)
	duplex := func(a, b topology.NodeID) {
		if _, err := g.AddLink(a, b, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddLink(b, a, 10); err != nil {
			t.Fatal(err)
		}
	}
	duplex(0, 1)
	duplex(1, 4) // the trap diagonal: 0-1-4-5 is the unique shortest path
	duplex(4, 5)
	duplex(0, 3)
	duplex(3, 4)
	duplex(1, 2)
	duplex(2, 5)
	// Shortest is 0-1-4-5 (3 hops). Greedy takes it, then 0-3-?-5 dead-ends
	// (3-4 blocked at node 4) => only 1 path.
	greedy := NewRouter(g).SequentialDisjointPaths(0, 5, 2, Constraint{})
	if len(greedy) != 1 {
		t.Fatalf("greedy found %d paths, expected trap to limit it to 1", len(greedy))
	}
	flow := disjointPaths(t, NewRouter(g), 0, 5, 2, Constraint{})
	if len(flow) != 2 {
		t.Fatalf("max-flow found %d paths, want 2", len(flow))
	}
	if !disjoint(flow[0], flow[1]) {
		t.Fatal("flow paths are not component-disjoint")
	}
}

func TestMaxDisjointPathsTorus(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	paths := disjointPaths(t, NewRouter(g), 0, 36, 4, Constraint{})
	if len(paths) != 4 { // torus is 4-connected
		t.Fatalf("got %d disjoint paths, want 4", len(paths))
	}
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if !disjoint(paths[i], paths[j]) {
				t.Fatalf("paths %d,%d are not component-disjoint", i, j)
			}
		}
		if paths[i].Source() != 0 || paths[i].Destination() != 36 {
			t.Fatal("wrong endpoints")
		}
	}
}

func TestMaxDisjointPathsRespectsConstraints(t *testing.T) {
	g := topology.NewTorus(4, 4, 10)
	ban := g.LinkBetween(0, 1)
	c := Constraint{LinkAllowed: func(l topology.LinkID) bool { return l != ban }}
	for _, p := range disjointPaths(t, NewRouter(g), 0, 5, 4, c) {
		if p.ContainsLink(ban) {
			t.Fatal("path uses banned link")
		}
	}
}

func TestExclusion(t *testing.T) {
	g := topology.NewMesh(3, 3, 10)
	p, _ := topology.PathBetween(g, []topology.NodeID{0, 1, 2})
	e := NewExclusion()
	e.AddPath(p)
	if !e.LinkExcluded(g.LinkBetween(0, 1)) || !e.LinkExcluded(g.LinkBetween(1, 2)) {
		t.Fatal("path links not excluded")
	}
	if e.LinkExcluded(g.LinkBetween(1, 0)) {
		t.Fatal("reverse link wrongly excluded: simplex links are distinct components")
	}
	if !e.NodeExcluded(1) {
		t.Fatal("interior node not excluded")
	}
	if e.NodeExcluded(0) || e.NodeExcluded(2) {
		t.Fatal("end nodes wrongly excluded")
	}
}

func BenchmarkShortestPathTorus(b *testing.B) {
	g := topology.NewTorus(8, 8, 200)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := NewRouter(g).ShortestPath(0, 36, Constraint{}); !ok {
				b.Fatal("no path")
			}
		}
	})
	// What establishment pays per backup: a warm Router, the primary's
	// components excluded, a feasibility predicate that rejects some links,
	// and the slack bound. Diagonal neighbours (the backup is as short as the
	// primary), the far corner (the widest diamond of shortest paths), and
	// one row (every disjoint route is two hops longer, so the bound is
	// raised).
	for _, pair := range [][2]topology.NodeID{{1, 10}, {0, 36}, {0, 4}} {
		src, dst := pair[0], pair[1]
		b.Run(fmt.Sprintf("backup-%d-%d", src, dst), func(b *testing.B) {
			r := NewRouter(g)
			prim, _ := r.ShortestPath(src, dst, Constraint{})
			excl := NewExclusion()
			excl.AddPath(prim)
			c := excl.Constrain(Constraint{
				MaxHops:     r.Distance(src, dst) + 2,
				LinkAllowed: func(l topology.LinkID) bool { return l%11 != 0 },
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := r.ShortestLinks(src, dst, c); !ok {
					b.Fatal("no path")
				}
			}
		})
	}
}

func BenchmarkDisjointLinksTorus(b *testing.B) {
	g := topology.NewTorus(8, 8, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := NewRouter(g).DisjointLinks(0, 36, 4, Constraint{}); len(got) != 4 {
			b.Fatal("wrong path count")
		}
	}
}
