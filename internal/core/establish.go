package core

import (
	"fmt"

	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Establishment is route, then admit, one D-connection at a time (§3.4).
// route is read-only: it routes the primary within its hop bound and each
// backup around the connection's earlier channels, so a request it cannot
// route is rejected before anything is minted. admit reserves the primary
// and adds each backup through addBackup and addBackupToLink, the one door
// by which a backup joins a link's multiplexing state: scanLink decides its
// Π membership and wireLink applies the decision (mux.go).
//
// Routing every channel before admitting any routes what a
// route-admit-route-admit loop would: admission changes only links the
// connection's later searches exclude (dedicated bandwidth on the primary's
// links, spare on each backup's).

// pathPlan is a path held as raw link/node sequences in reusable buffers; a
// topology.Path is materialized only for admission, once per channel.
type pathPlan struct {
	links []topology.LinkID
	nodes []topology.NodeID
}

func (pp *pathPlan) set(g *topology.Graph, links []topology.LinkID) {
	pp.links = append(pp.links[:0], links...)
	n := len(links) + 1
	if cap(pp.nodes) < n {
		pp.nodes = make([]topology.NodeID, n)
	} else {
		pp.nodes = pp.nodes[:n]
	}
	pp.nodes[0] = g.Link(links[0]).From
	for i, l := range links {
		pp.nodes[i+1] = g.Link(l).To
	}
}

// path returns pp as a Path that owns copies of its sequences.
func (pp *pathPlan) path(g *topology.Graph) topology.Path {
	return topology.NewPathUnchecked(g, pp.links, pp.nodes)
}

// planContext bundles the writer-side machinery of establishment: a routing
// engine, an exclusion set, route's path buffers and the admission scan's two
// lists. The Manager owns the only one (estCtx).
type planContext struct {
	m       *Manager
	router  *routing.Router
	excl    *routing.Exclusion
	prim    pathPlan        // route's primary
	backups []pathPlan      // route's backups
	paths   []topology.Path // Establish's backups, as admit takes them
	path    pathPlan        // routeBackupPath's link/node buffers
	grow    []int32         // scan's two lists
	pi      []int32

	// bw is read by the persistent feasibility closure, so the hot routing
	// constraint costs no allocation per establishment.
	bw           float64
	linkFeasible func(topology.LinkID) bool
}

func newPlanContext(m *Manager, r *routing.Router, excl *routing.Exclusion) *planContext {
	pc := &planContext{m: m, router: r, excl: excl}
	pc.linkFeasible = func(l topology.LinkID) bool {
		return pc.m.plan.net.Free(l) >= pc.bw-1e-9
	}
	return pc
}

// route routes a request's primary into pc.prim and n backups into
// pc.backups[:n], read-only, and leaves them all excluded in pc.excl.
// Callers hold the manager's write lock.
func (pc *planContext) route(src, dst topology.NodeID, spec rtchan.TrafficSpec, n int) error {
	if src == dst {
		return fmt.Errorf("core: src == dst (%d)", src)
	}
	if spec.Bandwidth <= 0 {
		return fmt.Errorf("core: non-positive bandwidth")
	}
	base := pc.router.Distance(src, dst)
	if base < 0 {
		return fmt.Errorf("core: %d and %d are disconnected", src, dst)
	}
	pc.bw = spec.Bandwidth
	primaryMax := base + spec.SlackHops
	c := routing.Constraint{MaxHops: primaryMax, LinkAllowed: pc.linkFeasible}
	links, ok := pc.router.ShortestLinks(src, dst, c)
	if !ok {
		return fmt.Errorf("core: no feasible primary path %d->%d within %d hops", src, dst, primaryMax)
	}
	g := pc.m.plan.net.Graph()
	pc.prim.set(g, links)
	excl := pc.excl.Reset()
	addExcluded(excl, &pc.prim)
	for len(pc.backups) < n {
		pc.backups = append(pc.backups, pathPlan{})
	}
	for i := range n {
		links, ok := pc.routeBackup(src, dst)
		if !ok {
			return fmt.Errorf("core: no feasible disjoint path for backup %d of %d->%d", i+1, src, dst)
		}
		pc.backups[i].set(g, links)
		addExcluded(excl, &pc.backups[i])
	}
	return nil
}

// addExcluded excludes a routed path's components the way Exclusion.AddPath
// does: every link plus every interior node.
func addExcluded(excl *routing.Exclusion, pp *pathPlan) {
	for _, l := range pp.links {
		excl.AddLink(l)
	}
	for i := 1; i+1 < len(pp.nodes); i++ {
		excl.AddNode(pp.nodes[i])
	}
}

// backupSlackHops bounds each backup path to the shortest disjoint path
// length plus this slack. The paper states the +2-hop QoS rule for primaries
// only; a backup carries the primary's traffic once activated, so it follows
// the same rule.
const backupSlackHops = 2

// routeBackup is the §3.4 backup-routing policy: it routes one backup channel
// from src to dst around everything in pc.excl (the connection's earlier
// channels, which is what keeps the pair disjoint) and returns its links in
// pc.router's scratch, valid until the next search. Candidate links must have
// pc.bw free — the paper's forward-pass reservation without multiplexing; the
// exact spare-pool check is admission's. Every caller — route and
// ReplenishBackups — sets pc.bw first.
func (pc *planContext) routeBackup(src, dst topology.NodeID) ([]topology.LinkID, bool) {
	c := pc.excl.Constrain(routing.Constraint{LinkAllowed: pc.linkFeasible})
	// The slack bound is relative to the shortest disjoint path regardless
	// of current bandwidth availability. That distance is never below the
	// cached unconstrained one, so a path found within Distance+slack is
	// within the bound, and is the path the search under the exact bound
	// returns (the labels below its length are the same): only a miss pays
	// for the exclusion-aware distance.
	tried := pc.router.Distance(src, dst) + backupSlackHops
	c.MaxHops = tried
	if links, ok := pc.router.ShortestLinks(src, dst, c); ok {
		return links, true
	}
	hops := pc.router.ShortestDistance(src, dst, pc.excl.Constrain(routing.Constraint{}))
	if hops < 0 || hops+backupSlackHops <= tried {
		return nil, false // cut off by the exclusion, or nothing new to try
	}
	c.MaxHops = hops + backupSlackHops
	return pc.router.ShortestLinks(src, dst, c)
}

// routeBackupPath is routeBackup for the callers that route one backup at a
// time and so need a Path rather than route's buffers.
func (pc *planContext) routeBackupPath(src, dst topology.NodeID) (topology.Path, bool) {
	links, ok := pc.routeBackup(src, dst)
	if !ok {
		return topology.Path{}, false
	}
	g := pc.m.plan.net.Graph()
	pc.path.set(g, links)
	return pc.path.path(g), true
}

// admit establishes a D-connection over paths its caller has validated: it
// reserves the primary under the next ConnID and adds each backup at its
// degree through addBackup. A routed backup is disjoint from the
// connection's other channels; a caller-supplied one may meet them, which
// addBackupToLink admits link by link. A backup the spare pools refuse rolls
// the whole connection back through removeBackupFromLink: the request
// consumes no ConnID, but the channel ids it minted stay spent (ids are
// monotonic, not dense).
func (m *Manager) admit(spec rtchan.TrafficSpec, primary topology.Path, backups []topology.Path, degrees []int) (*DConnection, error) {
	prim, err := m.plan.net.Establish(m.nextConn, rtchan.RolePrimary, primary, spec)
	if err != nil {
		return nil, err
	}
	conn := &DConnection{
		ID:         m.nextConn,
		Src:        primary.Source(),
		Dst:        primary.Destination(),
		Spec:       spec,
		Primary:    prim,
		sig:        m.plan.allocSig(),
		replDegree: 1,
	}
	m.primaryChanged(conn)
	if len(backups) > 0 {
		conn.Backups = make([]*rtchan.Channel, 0, len(backups))
		conn.Degrees = make([]int, 0, len(backups))
	}
	for i, bPath := range backups {
		bch, err := m.plan.net.Establish(conn.ID, rtchan.RoleBackup, bPath, spec)
		if err == nil {
			conn.listBackup(bch, degrees[i])
			err = m.addBackup(conn, bch, degrees[i])
		}
		if err != nil {
			for _, b := range conn.Backups {
				m.removeBackup(b)
				_ = m.plan.net.Teardown(b.ID)
			}
			_ = m.plan.net.Teardown(prim.ID)
			m.plan.releaseSig(conn.sig)
			return nil, fmt.Errorf("core: backup %d multiplexing: %w", i+1, err)
		}
	}
	m.plan.conns.Set(conn.ID, conn)
	m.nextConn++
	return conn, nil
}
