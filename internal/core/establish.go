package core

import (
	"fmt"

	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Establishment is split into a read-only *plan* phase and a mutating
// *commit* phase. The plan phase routes the primary and every backup within
// their hop bounds, runs the spare-pool admission probe on every backup
// link, and records the exact wiring the multiplexing engine would perform —
// without touching the plan. The commit phase replays the record: no
// routing, no Π decisions, no admission scans.
//
// The split is sound because one establishment's own mutations never feed
// back into its later decisions: the links a committed channel changes
// (dedicated bandwidth on the primary's links, spare growth and Π membership
// on each backup's links) are all excluded from every later search of the
// same connection, and the per-link admission probes of distinct backups
// touch disjoint links. So a plan computed against the unmutated state equals
// what the incremental route-commit-route-commit loop would compute, and
// EstablishWithPr can try (count, degree) combinations at the cost of
// admission probes alone (planOnPaths).
//
// Both phases, and the three writers that admit a backup link by link
// (EstablishOnPaths, ReplenishBackups, RestoreAsBackup, through
// addBackupToLink), share one copy of the §3.2 rule: scanLink decides a new
// backup's Π membership against a link's entries and wireLink applies the
// decision (mux.go).

// pathPlan is a path held as raw link/node sequences in reusable buffers; a
// topology.Path is materialized only at commit time, once per admitted
// channel.
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

// linkWire records the admission probe's outcome for one backup on one link:
// which existing entries' Π sets gain the new backup (grow), which existing
// entries the new backup's own Π set lists (pi), and the new entry's spare
// requirement. Both lists hold link-local entry indexes — the coordinates of
// the link's Π bit matrix — which stay valid until commit because plan and
// commit run under one hold of the write lock. Ranges index the owning
// connPlan's flat arenas so reusing a plan never reallocates them.
type linkWire struct {
	link             topology.LinkID
	growOff, growLen int32 // entry indexes in connPlan.growBuf
	piOff, piLen     int32 // entry indexes in connPlan.piBuf
	req              float64
}

// backupPlan is one planned backup channel: its path, degree, threshold
// class, and the per-link wiring record.
type backupPlan struct {
	path  pathPlan
	alpha int
	cls   int32
	wires []linkWire
}

// connPlan is a complete establishment decision: either a rejection (err set,
// nothing to commit — rejections mutate no state in either phase) or the
// full wiring record for a new D-connection. The Manager keeps one and
// reuses it for every establishment.
type connPlan struct {
	src, dst topology.NodeID
	spec     rtchan.TrafficSpec
	degrees  []int
	err      error

	prim     pathPlan
	backups  []backupPlan
	nBackups int

	growBuf []int32
	piBuf   []int32
}

// backupAt returns the i-th backup slot, growing the slice without discarding
// the recycled buffers of previously used slots.
func (p *connPlan) backupAt(i int) *backupPlan {
	if i < len(p.backups) {
		return &p.backups[i]
	}
	p.backups = append(p.backups, backupPlan{})
	return &p.backups[i]
}

// planContext bundles the machinery a plan needs: a routing engine, an
// exclusion set, and a scratch signature row for the primary being planned,
// which has no connection and so no slab row yet. The Manager owns the only
// one (estCtx), writer-side.
type planContext struct {
	m      *Manager
	router *routing.Router
	excl   *routing.Exclusion
	sig    []uint64
	path   pathPlan // routeBackupPath's link/node buffers
	grow   []int32  // scan's two lists
	pi     []int32

	// bw is read by the persistent feasibility closure, so the hot routing
	// constraint costs no allocation per establishment.
	bw           float64
	linkFeasible func(topology.LinkID) bool
}

func newPlanContext(m *Manager, r *routing.Router, excl *routing.Exclusion) *planContext {
	pc := &planContext{m: m, router: r, excl: excl, sig: make([]uint64, m.plan.sigStride)}
	pc.linkFeasible = func(l topology.LinkID) bool {
		return pc.m.plan.net.Free(l) >= pc.bw-1e-9
	}
	return pc
}

// plan computes the full establishment decision for one request into p,
// read-only against the shared plan. Callers hold the manager's write lock.
func (pc *planContext) plan(p *connPlan, src, dst topology.NodeID, spec rtchan.TrafficSpec, degrees []int) {
	m := pc.m
	p.src, p.dst, p.spec = src, dst, spec
	p.degrees = append(p.degrees[:0], degrees...)
	p.err = nil
	p.nBackups = 0
	p.growBuf = p.growBuf[:0]
	p.piBuf = p.piBuf[:0]
	pc.bw = spec.Bandwidth
	g := m.plan.net.Graph()

	if src == dst {
		p.err = fmt.Errorf("core: src == dst (%d)", src)
		return
	}
	if spec.Bandwidth <= 0 {
		p.err = fmt.Errorf("core: non-positive bandwidth")
		return
	}
	base := pc.router.Distance(src, dst)
	if base < 0 {
		p.err = fmt.Errorf("core: %d and %d are disconnected", src, dst)
		return
	}

	primaryMax := base + spec.SlackHops
	c := routing.Constraint{MaxHops: primaryMax, LinkAllowed: pc.linkFeasible}
	links, ok := pc.router.ShortestLinks(src, dst, c)
	if !ok {
		p.err = fmt.Errorf("core: no feasible primary path %d->%d within %d hops", src, dst, primaryMax)
		return
	}
	p.prim.set(g, links)
	m.plan.writeSig(pc.sig, p.prim.links, p.prim.nodes)
	if len(p.degrees) == 0 {
		return
	}

	excl := pc.excl.Reset()
	addExcluded(excl, &p.prim)
	for i, alpha := range p.degrees {
		bp := p.backupAt(i)
		bp.alpha = alpha
		bp.cls = m.plan.degreeClass(alpha)
		links, ok := pc.routeBackup(src, dst)
		if !ok {
			p.err = fmt.Errorf("core: no feasible disjoint path for backup %d of %d->%d", i+1, src, dst)
			return
		}
		bp.path.set(g, links)
		if err := pc.probeBackup(p, bp); err != nil {
			p.err = fmt.Errorf("core: backup %d multiplexing: %w", i+1, err)
			return
		}
		p.nBackups = i + 1
		addExcluded(excl, &bp.path)
	}
}

// addExcluded excludes a planned path's components the way Exclusion.AddPath
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
// exact spare-pool check is the admission probe. Every caller — the plan
// phase, ReplenishBackups, EstablishWithPr — sets pc.bw first.
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

// routeBackupPath is routeBackup for the callers that establish the channel
// at once and so need a Path rather than a plan record.
func (pc *planContext) routeBackupPath(src, dst topology.NodeID) (topology.Path, bool) {
	links, ok := pc.routeBackup(src, dst)
	if !ok {
		return topology.Path{}, false
	}
	g := pc.m.plan.net.Graph()
	pc.path.set(g, links)
	return topology.NewPathUnchecked(g, pc.path.links, pc.path.nodes), true
}

// probeBackup runs the spare-pool admission probe for one routed backup,
// recording the wiring that commit will replay, without mutating anything.
func (pc *planContext) probeBackup(p *connPlan, bp *backupPlan) error {
	if cap(bp.wires) < len(bp.path.links) {
		bp.wires = make([]linkWire, 0, 2*len(bp.path.links))
	}
	bp.wires = bp.wires[:0]
	for _, l := range bp.path.links {
		w, err := pc.probeLink(p, bp, l)
		if err != nil {
			return err
		}
		bp.wires = append(bp.wires, w)
	}
	return nil
}

// probeLink evaluates one link's admission read-only: scanLink's lists go
// into p's arenas, and the spare level the link must reach is checked against
// its capacity. The returned error is exactly what wireLink would fail with.
// pc.sig must hold the plan's primary. The planned connection has no
// signature row yet, and needs none: backups of one plan never share links
// (disjointness is enforced while planning, unlike EstablishOnPaths).
func (pc *planContext) probeLink(p *connPlan, bp *backupPlan, l topology.LinkID) (linkWire, error) {
	m := pc.m
	lm := &m.plan.mux[l]
	w := linkWire{link: l, growOff: int32(len(p.growBuf)), piOff: int32(len(p.piBuf))}
	req, need := m.plan.scanLink(lm, -1, pc.sig, bp.cls, p.spec.Bandwidth, &p.growBuf, &p.piBuf)
	w.growLen = int32(len(p.growBuf)) - w.growOff
	w.piLen = int32(len(p.piBuf)) - w.piOff
	w.req = req
	if need > m.plan.net.Spare(l) {
		if err := m.plan.net.SpareCheck(l, need); err != nil {
			return w, fmt.Errorf("core: link %d cannot grow spare to %g: %w", l, need, err)
		}
	}
	return w, nil
}

// planOnPaths re-plans p's backups over explicitly chosen, mutually disjoint
// paths at a uniform degree, keeping the primary pc already planned into p
// (and its signature in pc.sig). It is the probe-only core of
// EstablishWithPr's negotiation loop: candidates are routed once, and each
// (count, degree) attempt costs only admission probes.
// Reports whether every backup fits; p is left committable on success.
func (pc *planContext) planOnPaths(p *connPlan, paths []topology.Path, alpha int) bool {
	m := pc.m
	g := m.plan.net.Graph()
	p.err = nil
	p.nBackups = 0
	p.growBuf = p.growBuf[:0]
	p.piBuf = p.piBuf[:0]
	p.degrees = p.degrees[:0]
	pc.bw = p.spec.Bandwidth
	cls := m.plan.degreeClass(alpha)
	for i, path := range paths {
		bp := p.backupAt(i)
		bp.alpha = alpha
		bp.cls = cls
		bp.path.set(g, path.Links())
		if err := pc.probeBackup(p, bp); err != nil {
			return false
		}
		p.nBackups = i + 1
		p.degrees = append(p.degrees, alpha)
	}
	return true
}

// commitPlan applies a plan under the write lock: it materializes the
// channels and replays the recorded wiring. No routing and no admission
// decisions happen here — for a plan computed under the same hold of the
// lock, the replay is exact. Rejections commit by returning the planned
// error; they mutate nothing and consume no ids.
func (m *Manager) commitPlan(p *connPlan) (*DConnection, error) {
	if p.err != nil {
		return nil, p.err
	}
	g := m.plan.net.Graph()
	conn := &DConnection{ID: m.nextConn, Src: p.src, Dst: p.dst, Spec: p.spec, sig: m.plan.allocSig(), replDegree: 1}
	pPath := topology.NewPathUnchecked(g, p.prim.links, p.prim.nodes)
	prim, err := m.plan.net.Establish(conn.ID, rtchan.RolePrimary, 0, pPath, p.spec)
	if err != nil {
		// Unreachable after a successful plan: the routing predicate
		// (free >= bw-1e-9) is stricter than CanReserve's tolerance. Kept as
		// a defensive guard.
		m.plan.releaseSig(conn.sig)
		return nil, fmt.Errorf("core: primary admission: %w", err)
	}
	conn.Primary = prim
	m.primaryChanged(conn)
	undo := func() {
		for _, b := range conn.Backups {
			m.removeBackup(b)
			_ = m.plan.net.Teardown(b.ID)
		}
		_ = m.plan.net.Teardown(prim.ID)
		m.plan.releaseSig(conn.sig)
	}
	nb := p.nBackups
	if nb > 0 {
		conn.Backups = make([]*rtchan.Channel, 0, nb)
		conn.Degrees = make([]int, 0, nb)
	}
	for i := 0; i < nb; i++ {
		bp := &p.backups[i]
		bPath := topology.NewPathUnchecked(g, bp.path.links, bp.path.nodes)
		bch, err := m.plan.net.Establish(conn.ID, rtchan.RoleBackup, i+1, bPath, p.spec)
		if err != nil {
			undo()
			return nil, fmt.Errorf("core: backup %d admission: %w", i+1, err)
		}
		if err := m.commitBackupWires(p, bp, conn, bch); err != nil {
			_ = m.plan.net.Teardown(bch.ID)
			undo()
			return nil, fmt.Errorf("core: backup %d multiplexing: %w", i+1, err)
		}
		conn.listBackup(bch, bp.alpha)
	}
	m.plan.conns.Set(conn.ID, conn)
	m.nextConn++
	return conn, nil
}

// commitBackupWires replays one backup's recorded wiring onto its links. On
// the SetSpare failure (unreachable for a plan probed under this lock) it
// rolls the already-wired prefix back and leaves the rest to the caller.
func (m *Manager) commitBackupWires(p *connPlan, bp *backupPlan, conn *DConnection, bch *rtchan.Channel) error {
	entry := muxEntry{id: bch.ID, sig: conn.sig, cls: bp.cls, bw: bch.Bandwidth()}
	for wi := range bp.wires {
		w := &bp.wires[wi]
		entry.req = w.req
		err := m.wireLink(w.link, entry, p.growBuf[w.growOff:w.growOff+w.growLen], p.piBuf[w.piOff:w.piOff+w.piLen])
		if err != nil {
			for _, u := range bp.wires[:wi] {
				m.removeBackupFromLink(u.link, bch)
			}
			return err
		}
	}
	return nil
}
