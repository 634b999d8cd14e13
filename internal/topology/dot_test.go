package topology

import (
	"strings"
	"testing"
)

func TestWriteDotBasic(t *testing.T) {
	g := NewRing(4, 10)
	var b strings.Builder
	if err := g.WriteDot(&b, DotOptions{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`graph "ring-4"`, "0 -- 1", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Duplex pairs collapse: exactly 4 edges for the 4-cycle.
	if got := strings.Count(out, " -- "); got != 4 {
		t.Fatalf("edges = %d, want 4:\n%s", got, out)
	}
}

func TestWriteDotHighlightsAndFailures(t *testing.T) {
	g := NewMesh(3, 3, 10)
	p, _ := PathBetween(g, []NodeID{0, 1, 2})
	var b strings.Builder
	if err := g.WriteDot(&b, DotOptions{HighlightPaths: []Path{p}}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"0 [style=bold]", "0 -- 1 [color=blue, penwidth=2]", "1 -- 2 [color=blue, penwidth=2]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteDotDirectedFallback(t *testing.T) {
	g := NewGraph("oneway", 2)
	if _, err := g.AddLink(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := g.WriteDot(&b, DotOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0 -> 1") {
		t.Fatalf("one-way link not directed:\n%s", b.String())
	}
}
