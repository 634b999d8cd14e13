package routing

import (
	"github.com/rtcl/bcp/internal/topology"
)

// flowEdge is a residual-network edge for the disjoint-path max-flow.
type flowEdge struct {
	to      int32
	cap     int32
	rev     int32           // index of the reverse edge in edges[to]
	link    topology.LinkID // the topology link this arc represents, or NoLink
	forward bool            // true for original arcs, false for residuals
}

// fnAdd appends a forward arc and its zero-capacity residual to the pooled
// flow network.
func (r *Router) fnAdd(from, to int32, capacity int, link topology.LinkID) {
	r.fnEdges[from] = append(r.fnEdges[from], flowEdge{
		to: to, cap: int32(capacity), rev: int32(len(r.fnEdges[to])), link: link, forward: true,
	})
	r.fnEdges[to] = append(r.fnEdges[to], flowEdge{
		to: from, cap: 0, rev: int32(len(r.fnEdges[from]) - 1), link: topology.NoLink, forward: false,
	})
}

// fnAugment finds one augmenting path by BFS (Edmonds-Karp) over the pooled
// network and pushes one unit of flow, reporting success.
func (r *Router) fnAugment(source, sink int32, numVerts int) bool {
	preds := r.fnPreds[:numVerts]
	for i := range preds {
		preds[i].node = -1
	}
	preds[source].node = source
	q := r.fnQueue[:0]
	q = append(q, source)
	for head := 0; head < len(q); head++ {
		u := q[head]
		if u == sink {
			break
		}
		for i, e := range r.fnEdges[u] {
			if e.cap <= 0 || preds[e.to].node != -1 {
				continue
			}
			preds[e.to] = flowPred{node: u, idx: int32(i)}
			q = append(q, e.to)
		}
	}
	r.fnQueue = q
	if preds[sink].node == -1 {
		return false
	}
	for v := sink; v != source; {
		p := preds[v]
		e := &r.fnEdges[p.node][p.idx]
		e.cap--
		r.fnEdges[v][e.rev].cap++
		v = p.node
	}
	return true
}

// DisjointLinks is MaxDisjointPaths returning raw link sequences instead of
// materialized Paths: up to count mutually component-disjoint routes in
// non-decreasing hop order. Both the outer slice and each inner sequence are
// the router's scratch buffers, valid until the next disjoint search on r.
func (r *Router) DisjointLinks(src, dst topology.NodeID, count int, c Constraint) [][]topology.LinkID {
	if src == dst || count <= 0 {
		return nil
	}
	r.sync()
	g := r.g
	// Split each node v into v_in (2v) -> v_out (2v+1) with capacity 1
	// (count for the shared end nodes) to enforce node-disjointness.
	n := g.NumNodes()
	numVerts := int32(2 * n)
	for i := int32(0); i < numVerts; i++ {
		r.fnEdges[i] = r.fnEdges[i][:0]
	}
	inID := func(v topology.NodeID) int32 { return int32(2 * v) }
	outID := func(v topology.NodeID) int32 { return int32(2*v + 1) }
	for v := topology.NodeID(0); int(v) < n; v++ {
		capV := 1
		switch {
		case v == src || v == dst:
			capV = count
		case !c.nodeOK(v):
			capV = 0
		}
		r.fnAdd(inID(v), outID(v), capV, topology.NoLink)
	}
	for _, l := range g.Links() {
		if !c.linkOK(l.ID) {
			continue
		}
		r.fnAdd(outID(l.From), inID(l.To), 1, l.ID)
	}

	source, sink := outID(src), inID(dst)
	flows := 0
	for flows < count && r.fnAugment(source, sink, int(numVerts)) {
		flows++
	}
	if flows == 0 {
		return nil
	}

	// Extract paths: follow saturated forward link arcs from the source.
	// usedOut[u] lists the indices of u's forward arcs carrying flow;
	// usedHead[u] is the per-node consumption cursor (the pooled stand-in
	// for popping the slice head).
	for i := int32(0); i < numVerts; i++ {
		r.usedOut[i] = r.usedOut[i][:0]
		r.usedHead[i] = 0
	}
	for u := int32(0); u < numVerts; u++ {
		for i, e := range r.fnEdges[u] {
			if e.forward && r.fnEdges[e.to][e.rev].cap > 0 {
				for k := int32(0); k < r.fnEdges[e.to][e.rev].cap; k++ {
					r.usedOut[u] = append(r.usedOut[u], int32(i))
				}
			}
		}
	}
	r.djOut = r.djOut[:0]
	for f := 0; f < flows; f++ {
		for f >= len(r.djBuf) {
			r.djBuf = append(r.djBuf, nil)
		}
		buf := r.djBuf[f][:0]
		u := source
		for u != sink {
			if int(r.usedHead[u]) >= len(r.usedOut[u]) {
				break
			}
			i := r.usedOut[u][r.usedHead[u]]
			r.usedHead[u]++
			e := r.fnEdges[u][i]
			if e.link != topology.NoLink {
				buf = append(buf, e.link)
			}
			u = e.to
		}
		r.djBuf[f] = buf
		if u != sink || len(buf) == 0 || !r.simpleLinks(buf) {
			continue
		}
		r.djOut = append(r.djOut, buf)
	}
	// Insertion sort by hop count. sort.Slice (the previous implementation)
	// bottoms out in the same insertion sort below its 12-element pdqsort
	// threshold, so for every realistic count the order is byte-identical —
	// without the closure and interface allocations.
	out := r.djOut
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && len(out[j]) < len(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// simpleLinks reports whether the link sequence visits no node twice (it is
// contiguous by construction of the flow arcs). This is the scratch-backed
// equivalent of the NewPath validation the extraction used to rely on.
func (r *Router) simpleLinks(links []topology.LinkID) bool {
	g := r.g
	mark := r.nextMark()
	first := g.Link(links[0]).From
	r.nodeMark[first] = mark
	for _, l := range links {
		to := g.Link(l).To
		if r.nodeMark[to] == mark {
			return false
		}
		r.nodeMark[to] = mark
	}
	return true
}

// MaxDisjointPaths finds up to count mutually component-disjoint paths from
// src to dst via unit-capacity max-flow, the approach of the disjoint-path
// algorithms the paper cites ([WHA90, SID91]). Unlike the greedy
// SequentialDisjointPaths it is not trapped by an unlucky first shortest
// path: if k component-disjoint paths exist it finds min(k, count).
//
// Disjointness follows the paper's component model: the returned paths share
// no simplex links and no interior nodes. Constraint c restricts usable
// links and interior nodes; c.MaxHops is ignored (flow augmentation does not
// bound individual path lengths).
func (r *Router) MaxDisjointPaths(src, dst topology.NodeID, count int, c Constraint) []topology.Path {
	linkSets := r.DisjointLinks(src, dst, count, c)
	if len(linkSets) == 0 {
		return nil
	}
	paths := make([]topology.Path, 0, len(linkSets))
	for _, links := range linkSets {
		if p, err := topology.NewPath(r.g, links); err == nil {
			paths = append(paths, p)
		}
	}
	return paths
}
