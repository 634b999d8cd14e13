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
		if d := len(g.Out(n)); d != 4 {
			t.Fatalf("node %d out-degree = %d, want 4", n, d)
		}
		if d := len(g.In(n)); d != 4 {
			t.Fatalf("node %d in-degree = %d, want 4", n, d)
		}
	}
	for _, l := range g.Links() {
		if l.Capacity != 200 {
			t.Fatalf("link %d capacity = %g, want 200", l.ID, l.Capacity)
		}
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
	if d := len(g.Out(0)); d != 2 {
		t.Fatalf("corner out-degree = %d, want 2", d)
	}
	if d := len(g.Out(1)); d != 3 {
		t.Fatalf("edge out-degree = %d, want 3", d)
	}
	if d := len(g.Out(9)); d != 4 {
		t.Fatalf("interior out-degree = %d, want 4", d)
	}
	for _, l := range g.Links() {
		if l.Capacity != 300 {
			t.Fatalf("link %d capacity = %g, want 300", l.ID, l.Capacity)
		}
	}
}

func TestEveryLinkHasReverse(t *testing.T) {
	for i, g := range []*Graph{
		NewTorus(8, 8, 200), NewMesh(4, 5, 300), NewRing(7, 10),
		NewLine(5, 10), NewHypercube(4, 10), NewRandom(30, 3.5, 10, 42),
	} {
		for _, l := range g.Links() {
			r := g.Reverse(l.ID)
			if r == NoLink {
				t.Fatalf("graph %d: link %d (%d->%d) has no reverse", i, l.ID, l.From, l.To)
			}
			rl := g.Link(r)
			if rl.From != l.To || rl.To != l.From {
				t.Fatalf("graph %d: reverse of %d->%d is %d->%d", i, l.From, l.To, rl.From, rl.To)
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
	g := NewGraph(3)
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
		for _, l := range g1.Out(n) {
			if nb := g1.Link(l).To; !seen[nb] {
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
	if got := p.InteriorNodes(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("interior nodes = %v, want [1 2]", got)
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

func TestHypercube(t *testing.T) {
	g := NewHypercube(3, 10)
	if g.NumNodes() != 8 || g.NumLinks() != 8*3 {
		t.Fatalf("hypercube-3: %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
}
