package routing

import (
	"math"

	"github.com/rtcl/bcp/internal/topology"
)

// Router is a reusable path-finding engine bound to one graph. It owns every
// piece of scratch state the searches need — generation-stamped label
// arrays, the BFS queue, the unit-capacity flow network — so repeated
// searches allocate nothing once the arenas are warm. It also caches one
// unconstrained distance-to-destination row per destination node.
// The row answers Distance in O(1), so batch workloads that query every pair
// (all-pairs establishment) pay N tree builds instead of N² breadth-first
// searches, and it is the lower bound that keeps every constrained search
// inside the nodes that can still lie on a short enough path (bfsForward).
//
// Arenas and the distance rows are stamped with the graph's Version (its
// mutation epoch): the first search after an AddLink resizes the arenas and
// drops every cached row. Graphs are immutable once their generator
// returns, so in steady state the version check is a single compare.
//
// A Router is not safe for concurrent use. Parallel drivers build one
// Router per worker (each worker's Manager owns one), mirroring the
// one-Manager-per-worker rule of the sweep pool.
type Router struct {
	g    *topology.Graph
	gver uint64 // graph version the arenas are sized for
	init bool

	// BFS arena. dist[n] is valid iff nodeGen[n] == gen.
	gen     uint32
	nodeGen []uint32
	dist    []int32
	queue   []topology.NodeID

	// mark is a second stamp space for simple-path validity checks, so they
	// cannot disturb live search labels.
	mark     uint32
	nodeMark []uint32

	links   []topology.LinkID // result buffer for the *Links searches
	nodeSeq []topology.NodeID // node-sequence buffer for path materialization

	// toDst[dst][n] is the unconstrained hop distance from n to dst (-1
	// unreachable): one reverse BFS per row, built lazily, dropped on a
	// version change.
	toDst [][]int32

	// Pooled flow network for the disjoint-path max-flow.
	fnEdges  [][]flowEdge
	fnPreds  []flowPred
	fnQueue  []int32
	usedOut  [][]int32
	usedHead []int32
	djBuf    [][]topology.LinkID
	djOut    [][]topology.LinkID

	seqExcl *Exclusion // SequentialDisjointPaths' reusable exclusion
}

// flowPred records the BFS predecessor arc during flow augmentation.
type flowPred struct {
	node, idx int32
}

// NewRouter creates a Router for g. The arenas are sized on first use.
func NewRouter(g *topology.Graph) *Router {
	return &Router{g: g}
}

// sync sizes the arenas for the graph's current version. Steady state is a
// single uint64 compare; after a mutation it regrows what changed and drops
// the distance rows (the epoch invalidation rule).
func (r *Router) sync() {
	v := r.g.Version()
	if r.init && v == r.gver {
		return
	}
	n := r.g.NumNodes()
	if len(r.nodeGen) < n {
		r.nodeGen = make([]uint32, n)
		r.dist = make([]int32, n)
		r.nodeMark = make([]uint32, n)
		r.gen, r.mark = 0, 0
	}
	if len(r.fnEdges) < 2*n {
		r.fnEdges = make([][]flowEdge, 2*n)
		r.fnPreds = make([]flowPred, 2*n)
		r.usedOut = make([][]int32, 2*n)
		r.usedHead = make([]int32, 2*n)
	}
	// Drop the distance rows: the link set changed under them.
	r.toDst = make([][]int32, n)
	r.gver = v
	r.init = true
}

// nextGen advances the BFS label stamp, clearing the arena on wrap.
func (r *Router) nextGen() uint32 {
	r.gen++
	if r.gen == 0 {
		for i := range r.nodeGen {
			r.nodeGen[i] = 0
		}
		r.gen = 1
	}
	return r.gen
}

// nextMark advances the validity-check stamp, clearing the arena on wrap.
func (r *Router) nextMark() uint32 {
	r.mark++
	if r.mark == 0 {
		for i := range r.nodeMark {
			r.nodeMark[i] = 0
		}
		r.mark = 1
	}
	return r.mark
}

// Distance returns the unconstrained hop distance from src to dst, or -1 if
// unreachable, answered from dst's distance row (built on first query for
// dst, O(1) afterwards). Used to evaluate the paper's QoS rule: a channel
// meets its end-to-end delay requirement iff its path is at most 2 hops
// longer than the shortest possible path.
func (r *Router) Distance(src, dst topology.NodeID) int {
	r.sync()
	return int(r.distTo(dst)[src])
}

// distTo returns dst's distance row, running one full unconstrained BFS over
// the in-links on first use. The vector allocation is the cache entry itself
// (amortized across every later query and search toward dst), not per-call
// scratch.
func (r *Router) distTo(dst topology.NodeID) []int32 {
	if t := r.toDst[dst]; t != nil {
		return t
	}
	g := r.g
	t := make([]int32, g.NumNodes())
	for i := range t {
		t[i] = -1
	}
	t[dst] = 0
	q := append(r.queue[:0], dst)
	for head := 0; head < len(q); head++ {
		n := q[head]
		for _, l := range g.In(n) {
			from := g.Link(l).From
			if t[from] >= 0 {
				continue
			}
			t[from] = t[n] + 1
			q = append(q, from)
		}
	}
	r.queue = q
	r.toDst[dst] = t
	return t
}

// maxRaises is how many times a search raises its bound before one plain
// pass, bounded by MaxHops alone, takes over. Each raise restarts the
// labelling, so a target far beyond its unconstrained distance must not
// cost a pass per hop of detour.
const maxRaises = 3

// bfsForward labels nodes with their constrained hop distance from src,
// goal-directed: with h(n) the unconstrained distance from n to target, a
// pass at bound B admits a node only when dist+1+h ≤ B, and tests that
// before the constraint, so the links it prunes are never consulted. B
// starts at h(src) and is raised to the smallest pruned dist+1+h until
// target is labelled, nothing within MaxHops was pruned, or maxRaises is
// spent and the bound becomes MaxHops itself.
//
// h obeys the triangle inequality, so every node on a constrained path of
// length ≤ B passes the test and is reached in BFS order: a pass labels
// exactly the nodes with d+h ≤ B, each with its true constrained distance d.
// A shortest path's nodes all have d+h ≤ its length, which is why the
// backtrack in ShortestLinks finds the same candidates, in the same order,
// as after an exhaustive search. Returns the stamp of the last pass, which
// is always a fresh one: a search that labels nothing must not hand back the
// previous search's labels.
func (r *Router) bfsForward(src topology.NodeID, c Constraint, target topology.NodeID) uint32 {
	h := r.distTo(target)
	limit := int32(math.MaxInt32)
	if c.MaxHops > 0 && c.MaxHops < math.MaxInt32 {
		limit = int32(c.MaxHops)
	}
	bound := h[src]
	if bound < 0 || bound > limit {
		return r.nextGen()
	}
	for raises := 0; ; raises++ {
		gen, next := r.bfsPass(src, c, target, h, bound, limit)
		if r.nodeGen[target] == gen || next == 0 {
			return gen
		}
		bound = next
		if raises == maxRaises {
			bound = limit
		}
	}
}

// bfsPass is one labelling pass of bfsForward at the given bound, stopping
// once target is dequeued (every node at a strictly smaller distance is
// fully labeled by then). next is the smallest dist+1+h the bound pruned
// that limit would still admit, or 0 when there is none and a higher bound
// could label nothing more.
func (r *Router) bfsPass(src topology.NodeID, c Constraint, target topology.NodeID, h []int32, bound, limit int32) (gen uint32, next int32) {
	g := r.g
	gen = r.nextGen()
	r.dist[src] = 0
	r.nodeGen[src] = gen
	q := append(r.queue[:0], src)
	for head := 0; head < len(q); head++ {
		n := q[head]
		if n == target {
			break
		}
		d := r.dist[n] + 1
		for _, l := range g.Out(n) {
			to := g.Link(l).To
			if r.nodeGen[to] == gen || h[to] < 0 {
				continue
			}
			if f := d + h[to]; f > bound {
				if f <= limit && (next == 0 || f < next) {
					next = f
				}
				continue
			}
			if !c.linkOK(l) || (to != target && !c.nodeOK(to)) {
				continue
			}
			r.dist[to] = d
			r.nodeGen[to] = gen
			q = append(q, to)
		}
	}
	r.queue = q
	return gen, next
}

// ShortestDistance returns the hop count of a shortest src→dst path under c,
// or -1 if none exists. It is ShortestPath without the backtrack and path
// materialization — the right call when only the length matters (the
// backup-slack QoS bound).
func (r *Router) ShortestDistance(src, dst topology.NodeID, c Constraint) int {
	if src == dst {
		return -1
	}
	r.sync()
	gen := r.bfsForward(src, c, dst)
	if r.nodeGen[dst] != gen {
		return -1
	}
	return int(r.dist[dst])
}

// ShortestLinks returns the link sequence of a shortest src→dst path under
// c, and whether one exists. The slice is the router's scratch buffer: it is
// valid until the next search on r, and must be copied to outlive it.
// Among equally short paths it takes the lowest link id at each hop, backward
// from dst.
func (r *Router) ShortestLinks(src, dst topology.NodeID, c Constraint) ([]topology.LinkID, bool) {
	if src == dst {
		return nil, false
	}
	r.sync()
	gen := r.bfsForward(src, c, dst)
	if r.nodeGen[dst] != gen {
		return nil, false
	}
	g := r.g
	n := int(r.dist[dst])
	if cap(r.links) < n {
		r.links = make([]topology.LinkID, n)
	}
	links := r.links[:n]
	// Backtrack from dst, at each step taking the lowest-id in-link whose tail
	// is one hop closer to src.
	cur := dst
	for d := n; d > 0; d-- {
		choice := topology.NoLink
		for _, l := range g.In(cur) {
			from := g.Link(l).From
			if r.nodeGen[from] != gen || int(r.dist[from]) != d-1 {
				continue
			}
			if !c.linkOK(l) || (from != src && !c.nodeOK(from)) {
				continue
			}
			if choice == topology.NoLink || l < choice {
				choice = l
			}
		}
		links[d-1] = choice
		cur = g.Link(choice).From
	}
	r.links = links
	return links, true
}

// ShortestPath returns a shortest path from src to dst satisfying c, and
// whether one exists.
func (r *Router) ShortestPath(src, dst topology.NodeID, c Constraint) (topology.Path, bool) {
	links, ok := r.ShortestLinks(src, dst, c)
	if !ok {
		return topology.Path{}, false
	}
	// BFS trees cannot produce discontiguous or cyclic paths, so the
	// validating constructor would only re-derive what the backtrack already
	// guarantees.
	return topology.NewPathUnchecked(r.g, links, r.nodesFor(links)), true
}

// nodesFor expands a contiguous link sequence into its node sequence, in the
// router's reusable buffer (valid until the next nodesFor call).
func (r *Router) nodesFor(links []topology.LinkID) []topology.NodeID {
	if cap(r.nodeSeq) < len(links)+1 {
		r.nodeSeq = make([]topology.NodeID, len(links)+1)
	}
	nodes := r.nodeSeq[:len(links)+1]
	nodes[0] = r.g.Link(links[0]).From
	for i, l := range links {
		nodes[i+1] = r.g.Link(l).To
	}
	r.nodeSeq = nodes
	return nodes
}

// SequentialDisjointPaths implements the paper's routing discipline: it
// returns up to count paths from src to dst, each a shortest path under c
// avoiding all components (links and interior nodes) of the previously found
// ones. Fewer than count paths are returned when the residual graph
// disconnects. This greedy method can miss disjoint path sets that a
// flow-based method would find; see DisjointLinks for the flow-based
// alternative.
func (r *Router) SequentialDisjointPaths(src, dst topology.NodeID, count int, c Constraint) []topology.Path {
	var paths []topology.Path
	if r.seqExcl == nil {
		r.seqExcl = NewExclusion()
	}
	excl := r.seqExcl.Reset()
	for i := 0; i < count; i++ {
		cc := excl.Constrain(c)
		p, ok := r.ShortestPath(src, dst, cc)
		if !ok {
			break
		}
		paths = append(paths, p)
		excl.AddPath(p)
	}
	return paths
}
