package topology

import (
	"fmt"
	"slices"
	"strings"
)

// Path is a directed simple path through a graph, represented by the
// sequence of links traversed. A path with H links visits H+1 nodes.
//
// Following the paper, the *components* of a channel path are all of its
// links and all of its nodes, end nodes included: c(M) = 2H+1. Counting end
// nodes matters for backup multiplexing — the paper's guarantee that mux=3
// recovers from every single link failure requires a shared link to imply
// at least 3 shared components (the link plus both of its endpoints), even
// when the link sits at the start of a path.
type Path struct {
	g     *Graph
	links []LinkID
	nodes []NodeID // len(links)+1 node sequence, cached
}

// NewPath builds a Path from a link sequence, verifying contiguity.
func NewPath(g *Graph, links []LinkID) (Path, error) {
	if len(links) == 0 {
		return Path{}, fmt.Errorf("topology: empty path")
	}
	nodes := make([]NodeID, 0, len(links)+1)
	nodes = append(nodes, g.Link(links[0]).From)
	for i, l := range links {
		lk := g.Link(l)
		if lk.From != nodes[len(nodes)-1] {
			return Path{}, fmt.Errorf("topology: discontiguous path at hop %d: link %d starts at %d, expected %d",
				i, l, lk.From, nodes[len(nodes)-1])
		}
		nodes = append(nodes, lk.To)
	}
	seen := make(map[NodeID]struct{}, len(nodes))
	for _, n := range nodes {
		if _, dup := seen[n]; dup {
			return Path{}, fmt.Errorf("topology: path revisits node %d", n)
		}
		seen[n] = struct{}{}
	}
	return Path{g: g, links: append([]LinkID(nil), links...), nodes: nodes}, nil
}

// NewPathUnchecked builds a Path from a link sequence and its matching node
// sequence without validating contiguity or simplicity. It exists for callers
// that produce paths by construction — BFS/Dijkstra backtracks, plan replay —
// where re-validation is pure overhead. links and nodes are copied; the input
// slices may be scratch buffers. nodes must be the exact node sequence of
// links (len(links)+1 entries, source first).
func NewPathUnchecked(g *Graph, links []LinkID, nodes []NodeID) Path {
	return Path{
		g:     g,
		links: append([]LinkID(nil), links...),
		nodes: append([]NodeID(nil), nodes...),
	}
}

// PathBetween builds a path from a node sequence, resolving each hop to the
// connecting link.
func PathBetween(g *Graph, nodes []NodeID) (Path, error) {
	if len(nodes) < 2 {
		return Path{}, fmt.Errorf("topology: node sequence too short")
	}
	links := make([]LinkID, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		l := g.LinkBetween(nodes[i], nodes[i+1])
		if l == NoLink {
			return Path{}, fmt.Errorf("topology: no link %d->%d", nodes[i], nodes[i+1])
		}
		links = append(links, l)
	}
	return NewPath(g, links)
}

// IsZero reports whether p is the zero Path (no hops).
func (p Path) IsZero() bool { return len(p.links) == 0 }

// Graph returns the graph this path belongs to.
func (p Path) Graph() *Graph { return p.g }

// Hops returns the number of links.
func (p Path) Hops() int { return len(p.links) }

// Links returns the link sequence. Must not be modified.
func (p Path) Links() []LinkID { return p.links }

// Nodes returns the node sequence (source first). Must not be modified.
func (p Path) Nodes() []NodeID { return p.nodes }

// Source returns the first node.
func (p Path) Source() NodeID { return p.nodes[0] }

// Destination returns the last node.
func (p Path) Destination() NodeID { return p.nodes[len(p.nodes)-1] }

// InteriorNodes returns the nodes strictly between source and destination.
func (p Path) InteriorNodes() []NodeID {
	if len(p.nodes) <= 2 {
		return nil
	}
	return p.nodes[1 : len(p.nodes)-1]
}

// NumComponents returns c(M): the number of path components, i.e. links plus
// all visited nodes. A path of H hops has 2H+1 components.
func (p Path) NumComponents() int {
	if p.IsZero() {
		return 0
	}
	return 2*len(p.links) + 1
}

// ContainsLink reports whether the path traverses link l.
func (p Path) ContainsLink(l LinkID) bool { return slices.Contains(p.links, l) }

// ContainsNode reports whether the path visits node n (including end nodes).
func (p Path) ContainsNode(n NodeID) bool { return p.IndexOfNode(n) >= 0 }

// IndexOfNode returns the position of n in the node sequence, or -1. Paths
// are a handful of hops, so a linear scan wins over any index structure.
func (p Path) IndexOfNode(n NodeID) int {
	for i, x := range p.nodes {
		if x == n {
			return i
		}
	}
	return -1
}

// String renders the path as "0->1->2".
func (p Path) String() string {
	if p.IsZero() {
		return "<empty>"
	}
	var b strings.Builder
	for i, n := range p.nodes {
		if i > 0 {
			b.WriteString("->")
		}
		fmt.Fprintf(&b, "%d", n)
	}
	return b.String()
}
