package topology

import (
	"testing"
)

func TestTorusCounts(t *testing.T) {
	g := NewTorus(8, 8, 200)
	if g.NumNodes() != 64 {
		t.Fatalf("nodes = %d, want 64", g.NumNodes())
	}
	// 8x8 torus: 2 duplex edges per node => 128 edges => 256 simplex links.
	if g.NumLinks() != 256 {
		t.Fatalf("links = %d, want 256", g.NumLinks())
	}
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		if d := g.OutDegree(n); d != 4 {
			t.Fatalf("node %d out-degree = %d, want 4", n, d)
		}
		if d := len(g.In(n)); d != 4 {
			t.Fatalf("node %d in-degree = %d, want 4", n, d)
		}
	}
	if got, want := g.TotalCapacity(), 256*200.0; got != want {
		t.Fatalf("total capacity = %g, want %g", got, want)
	}
}

func TestMeshCounts(t *testing.T) {
	g := NewMesh(8, 8, 300)
	if g.NumNodes() != 64 {
		t.Fatalf("nodes = %d, want 64", g.NumNodes())
	}
	// 8x8 mesh: 2*8*7 = 112 edges => 224 simplex links.
	if g.NumLinks() != 224 {
		t.Fatalf("links = %d, want 224", g.NumLinks())
	}
	// Corner (0,0) has degree 2, edge (0,1) degree 3, interior (1,1) degree 4.
	if d := g.OutDegree(0); d != 2 {
		t.Fatalf("corner out-degree = %d, want 2", d)
	}
	if d := g.OutDegree(1); d != 3 {
		t.Fatalf("edge out-degree = %d, want 3", d)
	}
	if d := g.OutDegree(9); d != 4 {
		t.Fatalf("interior out-degree = %d, want 4", d)
	}
	if got, want := g.TotalCapacity(), 224*300.0; got != want {
		t.Fatalf("total capacity = %g, want %g", got, want)
	}
}

func TestEveryLinkHasReverse(t *testing.T) {
	for _, g := range []*Graph{
		NewTorus(8, 8, 200), NewMesh(4, 5, 300), NewRing(7, 10),
		NewLine(5, 10), NewHypercube(4, 10), NewRandom(30, 3.5, 10, 42),
	} {
		for _, l := range g.Links() {
			r := g.Reverse(l.ID)
			if r == NoLink {
				t.Fatalf("%s: link %d (%d->%d) has no reverse", g.Name(), l.ID, l.From, l.To)
			}
			rl := g.Link(r)
			if rl.From != l.To || rl.To != l.From {
				t.Fatalf("%s: reverse of %d->%d is %d->%d", g.Name(), l.From, l.To, rl.From, rl.To)
			}
		}
	}
}

func TestLinkBetween(t *testing.T) {
	g := NewMesh(2, 2, 10)
	if l := g.LinkBetween(0, 1); l == NoLink {
		t.Fatal("expected link 0->1")
	}
	if l := g.LinkBetween(0, 3); l != NoLink {
		t.Fatal("unexpected diagonal link 0->3")
	}
}

func TestAddLinkErrors(t *testing.T) {
	g := NewGraph("test", 3)
	if _, err := g.AddLink(0, 0, 10); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddLink(0, 5, 10); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := g.AddLink(0, 1, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := g.AddLink(0, 1, 10); err != nil {
		t.Errorf("valid link rejected: %v", err)
	}
	if _, err := g.AddLink(0, 1, 10); err == nil {
		t.Error("duplicate link accepted")
	}
}

func TestTwoWideTorusHasNoDuplicateLinks(t *testing.T) {
	g := NewTorus(2, 2, 10)
	// 2x2 torus degenerates to a 4-cycle: each node connects to 2 neighbors.
	if g.NumLinks() != 8 {
		t.Fatalf("2x2 torus links = %d, want 8", g.NumLinks())
	}
	g = NewTorus(2, 4, 10)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGraphConnectedAndDeterministic(t *testing.T) {
	g1 := NewRandom(40, 4, 10, 7)
	g2 := NewRandom(40, 4, 10, 7)
	if g1.NumLinks() != g2.NumLinks() {
		t.Fatalf("same seed produced different graphs: %d vs %d links", g1.NumLinks(), g2.NumLinks())
	}
	// BFS connectivity check.
	seen := make([]bool, g1.NumNodes())
	queue := []NodeID{0}
	seen[0] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, nb := range g1.Neighbors(n) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("random graph not connected: node %d unreachable", i)
		}
	}
}

func TestPathConstruction(t *testing.T) {
	g := NewLine(5, 10)
	p, err := PathBetween(g, []NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 3 {
		t.Fatalf("hops = %d, want 3", p.Hops())
	}
	if p.Source() != 0 || p.Destination() != 3 {
		t.Fatalf("endpoints = %d,%d", p.Source(), p.Destination())
	}
	if got := p.NumComponents(); got != 7 { // 3 links + 4 nodes
		t.Fatalf("components = %d, want 7", got)
	}
	if !p.ContainsInteriorNode(1) || p.ContainsInteriorNode(0) || p.ContainsInteriorNode(3) {
		t.Fatal("interior node classification wrong")
	}
	if p.String() != "0->1->2->3" {
		t.Fatalf("String() = %q", p.String())
	}
}

func TestPathErrors(t *testing.T) {
	g := NewLine(5, 10)
	if _, err := PathBetween(g, []NodeID{0}); err == nil {
		t.Error("single-node path accepted")
	}
	if _, err := PathBetween(g, []NodeID{0, 2}); err == nil {
		t.Error("non-adjacent hop accepted")
	}
	if _, err := PathBetween(g, []NodeID{0, 1, 0, 1}); err == nil {
		t.Error("node-revisiting path accepted")
	}
	// Discontiguous link sequence.
	l01 := g.LinkBetween(0, 1)
	l23 := g.LinkBetween(2, 3)
	if _, err := NewPath(g, []LinkID{l01, l23}); err == nil {
		t.Error("discontiguous link path accepted")
	}
}

func TestSharedComponents(t *testing.T) {
	g := NewMesh(3, 3, 10)
	// Nodes: 0 1 2 / 3 4 5 / 6 7 8
	p1, _ := PathBetween(g, []NodeID{0, 1, 2, 5}) // links 0-1,1-2,2-5
	p2, _ := PathBetween(g, []NodeID{3, 4, 1, 2}) // links 3-4,4-1,1-2
	// Shared: link 1->2 plus nodes 1 and 2 (all visited nodes count).
	if sc := p1.SharedComponents(p2); sc != 3 {
		t.Fatalf("sc = %d, want 3 (link 1->2 + nodes 1,2)", sc)
	}
	// Symmetry.
	if sc := p2.SharedComponents(p1); sc != 3 {
		t.Fatalf("sc not symmetric")
	}
	// Self-share: all components.
	if sc := p1.SharedComponents(p1); sc != p1.NumComponents() {
		t.Fatalf("self sc = %d, want %d", sc, p1.NumComponents())
	}
	// Opposite-direction links are distinct components; nodes are shared.
	q1, _ := PathBetween(g, []NodeID{0, 1, 2})
	q2, _ := PathBetween(g, []NodeID{2, 1, 0})
	if sc := q1.SharedComponents(q2); sc != 3 {
		t.Fatalf("antiparallel paths share sc=%d, want 3 (nodes 0,1,2)", sc)
	}
	// Sharing a single link always implies >= 3 shared components — the
	// property underlying the paper's mux=3 single-link-failure guarantee.
	r1, _ := PathBetween(g, []NodeID{0, 1, 2})
	r2, _ := PathBetween(g, []NodeID{0, 1, 4})
	if sc := r1.SharedComponents(r2); sc != 3 {
		t.Fatalf("paths sharing their first link: sc=%d, want 3", sc)
	}
}

func TestComponentDisjoint(t *testing.T) {
	g := NewMesh(3, 3, 10)
	p1, _ := PathBetween(g, []NodeID{0, 1, 2})
	p2, _ := PathBetween(g, []NodeID{0, 3, 4, 5, 2}) // same endpoints, disjoint interior
	if !p1.ComponentDisjoint(p2) {
		t.Fatal("channels sharing only their end nodes should qualify as disjoint")
	}
	if !p2.ComponentDisjoint(p1) {
		t.Fatal("ComponentDisjoint not symmetric")
	}
	p3, err := PathBetween(g, []NodeID{4, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p1.ComponentDisjoint(p3) {
		t.Fatal("paths sharing interior node 1 should not be disjoint")
	}
	// Sharing a node that is an end of one path but interior of the other
	// disqualifies: its failure kills both channels.
	p4, _ := PathBetween(g, []NodeID{1, 4, 7})
	if p1.ComponentDisjoint(p4) {
		t.Fatal("node 1 is interior to p1 and an end of p4: not disjoint")
	}
	// Sharing a link disqualifies.
	p5, _ := PathBetween(g, []NodeID{0, 1, 4})
	if p1.ComponentDisjoint(p5) {
		t.Fatal("paths sharing link 0->1 should not be disjoint")
	}
}

func TestHypercube(t *testing.T) {
	g := NewHypercube(3, 10)
	if g.NumNodes() != 8 || g.NumLinks() != 8*3 {
		t.Fatalf("hypercube-3: %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
}

func BenchmarkSharedComponents(b *testing.B) {
	g := NewTorus(8, 8, 200)
	p1, err := PathBetween(g, []NodeID{0, 1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	p2, err := PathBetween(g, []NodeID{10, 2, 3, 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p1.SharedComponents(p2) != 3 {
			b.Fatal("wrong sc")
		}
	}
}
