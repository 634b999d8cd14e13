// Package topology models multi-hop network topologies as directed
// multigraphs of nodes connected by simplex links, as used throughout the
// BCP (Backup Channel Protocol) simulation.
//
// Following the paper, neighbor nodes are connected by two simplex links,
// one per direction, and a network "component" is either a node or a
// simplex link. Channels are uni-directional, so paths are directed.
package topology

import (
	"fmt"
)

// NodeID identifies a node. Nodes are numbered 0..N-1.
type NodeID int32

// LinkID identifies a simplex link. Links are numbered 0..L-1.
type LinkID int32

// Invalid sentinel values.
const (
	NoNode NodeID = -1
	NoLink LinkID = -1
)

// Link is a uni-directional (simplex) communication link with a fixed
// bandwidth capacity. Capacity is in abstract bandwidth units (the paper
// uses Mbps).
type Link struct {
	ID       LinkID
	From, To NodeID
	Capacity float64
}

// Graph is a directed network topology. It is immutable after construction;
// dynamic state (failures, reservations) is layered on top by other packages.
type Graph struct {
	numNodes int
	links    []Link
	out      [][]LinkID // out[n] = links leaving node n
	in       [][]LinkID // in[n] = links entering node n
	byPair   map[[2]NodeID]LinkID
	version  uint64 // mutation epoch, bumped by AddLink
}

// NewGraph creates an empty graph with n nodes and no links.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Graph{
		numNodes: n,
		out:      make([][]LinkID, n),
		in:       make([][]LinkID, n),
		byPair:   make(map[[2]NodeID]LinkID),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumLinks returns the number of simplex links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Link returns the link with the given id.
func (g *Graph) Link(id LinkID) Link {
	return g.links[id]
}

// Links returns all links. The returned slice must not be modified.
func (g *Graph) Links() []Link { return g.links }

// Version returns the graph's mutation epoch: it increments on every
// successful AddLink. Derived per-graph caches (routing.Router's arenas and
// shortest-path trees) record the version they were built at and rebuild
// when it changes, so a graph still under construction by a generator cannot
// serve stale cached state.
func (g *Graph) Version() uint64 { return g.version }

// Out returns the ids of links leaving node n. Must not be modified.
func (g *Graph) Out(n NodeID) []LinkID { return g.out[n] }

// In returns the ids of links entering node n. Must not be modified.
func (g *Graph) In(n NodeID) []LinkID { return g.in[n] }

// AddLink adds a simplex link from one node to another and returns its id.
// Adding a second link between the same ordered pair is rejected: the paper's
// networks have exactly one simplex link per direction per neighbor pair.
func (g *Graph) AddLink(from, to NodeID, capacity float64) (LinkID, error) {
	if from < 0 || int(from) >= g.numNodes || to < 0 || int(to) >= g.numNodes {
		return NoLink, fmt.Errorf("topology: link endpoints %d->%d out of range [0,%d)", from, to, g.numNodes)
	}
	if from == to {
		return NoLink, fmt.Errorf("topology: self-loop at node %d", from)
	}
	if capacity <= 0 {
		return NoLink, fmt.Errorf("topology: non-positive capacity %g", capacity)
	}
	key := [2]NodeID{from, to}
	if _, dup := g.byPair[key]; dup {
		return NoLink, fmt.Errorf("topology: duplicate link %d->%d", from, to)
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: from, To: to, Capacity: capacity})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.byPair[key] = id
	g.version++
	return id, nil
}

// mustAddLink is used by generators whose arguments are known valid.
func (g *Graph) mustAddLink(from, to NodeID, capacity float64) LinkID {
	id, err := g.AddLink(from, to, capacity)
	if err != nil {
		panic(err)
	}
	return id
}

// addDuplex adds a pair of simplex links (one in each direction).
func (g *Graph) addDuplex(a, b NodeID, capacity float64) {
	g.mustAddLink(a, b, capacity)
	g.mustAddLink(b, a, capacity)
}

// LinkBetween returns the simplex link from one node to another, or NoLink
// if the nodes are not adjacent in that direction.
func (g *Graph) LinkBetween(from, to NodeID) LinkID {
	if id, ok := g.byPair[[2]NodeID{from, to}]; ok {
		return id
	}
	return NoLink
}

// Reverse returns the simplex link in the opposite direction of l, or NoLink
// if the topology has no such link.
func (g *Graph) Reverse(l LinkID) LinkID {
	lk := g.links[l]
	return g.LinkBetween(lk.To, lk.From)
}

// Validate checks internal consistency; generators call it before returning.
func (g *Graph) Validate() error {
	for i, l := range g.links {
		if LinkID(i) != l.ID {
			return fmt.Errorf("topology: link %d has id %d", i, l.ID)
		}
		if l.From < 0 || int(l.From) >= g.numNodes || l.To < 0 || int(l.To) >= g.numNodes {
			return fmt.Errorf("topology: link %d endpoints out of range", i)
		}
	}
	for n, ls := range g.out {
		for _, l := range ls {
			if g.links[l].From != NodeID(n) {
				return fmt.Errorf("topology: out list of node %d contains link %d from node %d", n, l, g.links[l].From)
			}
		}
	}
	for n, ls := range g.in {
		for _, l := range ls {
			if g.links[l].To != NodeID(n) {
				return fmt.Errorf("topology: in list of node %d contains link %d to node %d", n, l, g.links[l].To)
			}
		}
	}
	return nil
}
