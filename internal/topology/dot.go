package topology

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// DotOptions customizes WriteDot output.
type DotOptions struct {
	// HighlightPaths draws each path in a distinct color (cycled from a
	// small palette) with penwidth 2.
	HighlightPaths []Path
}

var dotPalette = []string{"blue", "forestgreen", "darkorange", "purple", "crimson", "teal"}

// WriteDot renders the graph in Graphviz DOT format. Every duplex link pair
// collapses into one undirected edge, colored when either direction lies on
// a highlighted path; simplex links without a reverse render as directed
// edges.
func (g *Graph) WriteDot(w io.Writer, opts DotOptions) error {
	linkColor := make(map[LinkID]string)
	nodeOnPath := make(map[NodeID]bool)
	for i, p := range opts.HighlightPaths {
		color := dotPalette[i%len(dotPalette)]
		for _, l := range p.Links() {
			linkColor[l] = color
		}
		for _, n := range p.Nodes() {
			nodeOnPath[n] = true
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", g.Name())
	b.WriteString("  layout=neato;\n  node [shape=circle, fontsize=10];\n")
	for v := 0; v < g.NumNodes(); v++ {
		if nodeOnPath[NodeID(v)] {
			fmt.Fprintf(&b, "  %d [style=bold];\n", v)
		} else {
			fmt.Fprintf(&b, "  %d;\n", v)
		}
	}
	// Collapse duplex pairs: emit each undirected edge once (lower id side).
	emitted := make(map[LinkID]bool)
	links := append([]Link(nil), g.Links()...)
	sort.Slice(links, func(i, j int) bool { return links[i].ID < links[j].ID })
	for _, l := range links {
		if emitted[l.ID] {
			continue
		}
		rev := g.Reverse(l.ID)
		directed := rev == NoLink
		if !directed {
			emitted[rev] = true
		}
		emitted[l.ID] = true
		var attrs []string
		c, ok := linkColor[l.ID]
		if !ok && !directed {
			c, ok = linkColor[rev]
		}
		if ok {
			attrs = append(attrs, "color="+c, "penwidth=2")
		}
		arrow := " -- "
		if directed {
			arrow = " -> "
			attrs = append(attrs, "dir=forward")
		}
		if len(attrs) > 0 {
			fmt.Fprintf(&b, "  %d%s%d [%s];\n", l.From, arrow, l.To, strings.Join(attrs, ", "))
		} else {
			fmt.Fprintf(&b, "  %d%s%d;\n", l.From, arrow, l.To)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
