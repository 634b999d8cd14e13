// Package routing provides the path-selection algorithms used to establish
// primary and backup channels: constrained breadth-first shortest paths and
// disjoint path search.
//
// The paper routes channels with a "sequential shortest-path search": the
// primary is routed on a shortest feasible path, then each backup on a
// shortest feasible path that avoids all components of the connection's
// earlier channels. Feasibility (admission) is expressed here as caller
// supplied predicates over links and nodes, so the same search serves both
// the unconstrained distance computation and the bandwidth-constrained one.
//
// All searches run on a Router, a reusable engine that owns every piece of
// scratch state (label arrays, queues, the flow network), so steady-state
// searches allocate nothing. A Router is single-threaded: the core Manager
// and the experiment drivers hold one per worker.
package routing

import "github.com/rtcl/bcp/internal/topology"

// Constraint restricts a path search.
//
// LinkAllowed and NodeAllowed may be nil, meaning unrestricted. NodeAllowed
// is consulted for interior nodes only: the search always allows the source
// and destination themselves (the channels of one D-connection necessarily
// share their end nodes).
//
// MaxHops of 0 means unbounded.
type Constraint struct {
	MaxHops     int
	LinkAllowed func(topology.LinkID) bool
	NodeAllowed func(topology.NodeID) bool

	// Exclude, if non-nil, bans its components before the predicates are
	// consulted. Exclusion sets are bitsets, so sequential disjoint routing
	// pays two word lookups per candidate component instead of two map
	// probes and two closure frames (the former Constrain chaining).
	Exclude *Exclusion
}

func (c Constraint) linkOK(l topology.LinkID) bool {
	if c.Exclude != nil && c.Exclude.LinkExcluded(l) {
		return false
	}
	return c.LinkAllowed == nil || c.LinkAllowed(l)
}

func (c Constraint) nodeOK(n topology.NodeID) bool {
	if c.Exclude != nil && c.Exclude.NodeExcluded(n) {
		return false
	}
	return c.NodeAllowed == nil || c.NodeAllowed(n)
}

// bitset is a fixed-universe membership set over dense int ids, grown on
// demand so the zero value works for any graph size.
type bitset []uint64

func (b *bitset) set(i int) {
	w := i >> 6
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

// Exclusion accumulates components to avoid, for sequential disjoint
// routing. It is a pair of link/node bitsets sized to the graph's id spaces:
// membership tests are branch-free word lookups, and Reset keeps the storage
// so one Exclusion can serve every establishment a Manager performs.
type Exclusion struct {
	links bitset
	nodes bitset
}

// NewExclusion returns an empty exclusion set.
func NewExclusion() *Exclusion {
	return &Exclusion{}
}

// Reset empties the exclusion, keeping its storage, and returns it.
func (e *Exclusion) Reset() *Exclusion {
	e.links.clear()
	e.nodes.clear()
	return e
}

// AddPath excludes every component of p: all its simplex links and all its
// interior nodes. Reverse-direction links are distinct components in the
// paper's failure model (a simplex link crashes independently), so they are
// not excluded — though a backup can rarely use them anyway, since their
// endpoints are excluded interior nodes.
func (e *Exclusion) AddPath(p topology.Path) {
	for _, l := range p.Links() {
		e.links.set(int(l))
	}
	for _, n := range p.InteriorNodes() {
		e.nodes.set(int(n))
	}
}

// AddLink excludes a single link (not its reverse).
func (e *Exclusion) AddLink(l topology.LinkID) { e.links.set(int(l)) }

// AddNode excludes a single node.
func (e *Exclusion) AddNode(n topology.NodeID) { e.nodes.set(int(n)) }

// LinkExcluded reports whether l is excluded.
func (e *Exclusion) LinkExcluded(l topology.LinkID) bool { return e.links.has(int(l)) }

// NodeExcluded reports whether n is excluded.
func (e *Exclusion) NodeExcluded(n topology.NodeID) bool { return e.nodes.has(int(n)) }

// Constrain merges the exclusion into an existing constraint, returning a
// new constraint that also avoids the excluded components. The common case
// attaches the exclusion to the constraint's Exclude slot without allocating;
// only a constraint already carrying a different exclusion falls back to
// predicate chaining.
func (e *Exclusion) Constrain(c Constraint) Constraint {
	if c.Exclude == nil || c.Exclude == e {
		c.Exclude = e
		return c
	}
	prev := c.Exclude
	prevLink, prevNode := c.LinkAllowed, c.NodeAllowed
	c.Exclude = e
	c.LinkAllowed = func(l topology.LinkID) bool {
		if prev.LinkExcluded(l) {
			return false
		}
		return prevLink == nil || prevLink(l)
	}
	c.NodeAllowed = func(n topology.NodeID) bool {
		if prev.NodeExcluded(n) {
			return false
		}
		return prevNode == nil || prevNode(n)
	}
	return c
}
