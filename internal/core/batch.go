package core

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// EstablishRequest is one establishment in a batch: the arguments of a
// Manager.Establish call.
type EstablishRequest struct {
	Src, Dst topology.NodeID
	Spec     rtchan.TrafficSpec
	Degrees  []int
}

// BatchOptions configures EstablishBatch.
type BatchOptions struct {
	// Workers is the number of speculative planner goroutines. Values <= 1
	// run the batch as a plain sequential loop.
	Workers int
}

// BatchResult reports a batch's outcomes, indexed like the request slice.
type BatchResult struct {
	Conns []*DConnection // per request; nil where rejected
	Errs  []error        // per request; nil where established

	Established, Rejected int
	// Planned counts speculative plans committed as-is; Replanned counts
	// plans invalidated by earlier commits and recomputed sequentially.
	// Planned + Replanned = len(reqs) on the pipelined path.
	Planned, Replanned int
}

// EstablishBatch establishes many D-connections with speculative parallel
// planning and strictly ordered commits. Results are bit-identical to
// calling Establish once per request in slice order — same connection and
// channel ids, same paths, same spare pools, same rejections — because a
// single committer validates each speculative plan against what actually
// committed before it, and re-plans the (rare) invalidated ones inline.
//
// Planners run the read-only plan phase (establish.go) under the reader
// lock, each with its own leased routing engine. Three monotonicity facts
// make cheap validation possible while the batch runs: free bandwidth only
// shrinks (no teardowns), spare pools only grow, and per-link Π structures
// only gain entries. So (1) a plan that was *rejected* stays rejected — a
// routing failure cannot unhappen, a spare overflow only worsens; (2) a
// routing predicate's "no" stays "no", so only approved links (the plan's
// consulted set) need rechecking; and (3) an admission probe stays exact
// unless its link's account or Π structure moved, which the committer tracks
// with per-link version stamps. Plans with decisions outside these rules
// (explicit delay contracts, load-aware backup weights) are marked strict
// and replanned whenever anything committed after their snapshot.
//
// Randomized tie-breaking (Config.TieBreak) makes routing depend on the
// shared RNG's call sequence, which speculation would reorder: such managers
// fall back to the sequential loop.
func (m *Manager) EstablishBatch(reqs []EstablishRequest, opts BatchOptions) BatchResult {
	res := BatchResult{Conns: make([]*DConnection, len(reqs)), Errs: make([]error, len(reqs))}
	workers := opts.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 || len(reqs) < 2 || m.Config().TieBreak != nil {
		for i := range reqs {
			r := &reqs[i]
			conn, err := m.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
			res.record(i, conn, err)
		}
		return res
	}

	m.routersOnce.Do(func() { m.routers = routing.NewRouterPool(m.Graph()) })
	numLinks := m.Graph().NumLinks()
	b := &batchRun{
		m:         m,
		reqs:      reqs,
		plans:     make([]*connPlan, len(reqs)),
		window:    4 * workers,
		stateVer:  1,
		freeEpoch: make([]uint64, numLinks),
		muxEpoch:  make([]uint64, numLinks),
	}
	b.cond = sync.NewCond(&b.mu)
	m.mu.RLock()
	b.expectEpoch = m.plan.epoch
	m.mu.RUnlock()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			b.planner()
		}()
	}
	b.commitAll(&res)
	wg.Wait()
	return res
}

func (r *BatchResult) record(i int, conn *DConnection, err error) {
	r.Conns[i], r.Errs[i] = conn, err
	if err != nil {
		r.Rejected++
	} else {
		r.Established++
	}
}

// batchRun is the shared state of one EstablishBatch pipeline.
type batchRun struct {
	m    *Manager
	reqs []EstablishRequest

	// mu/cond guard the pipeline bookkeeping (not the network plan): the
	// next unclaimed request, completed plans, and the commit frontier.
	mu        sync.Mutex
	cond      *sync.Cond
	next      int
	committed int
	plans     []*connPlan
	window    int // lookahead bound: plan at most this far past the frontier

	// Commit-side staleness tracking. stateVer counts mutating commits; it
	// is written under the manager's write lock and read by planners under
	// the read lock (each plan snapshots it as p.seq). freeEpoch/muxEpoch
	// record, per link, the stateVer of the last change to its bandwidth
	// account / its Π structure; foreignAt invalidates every plan older than
	// the last write that bypassed the batch (a concurrent non-batch caller).
	stateVer    uint64
	freeEpoch   []uint64
	muxEpoch    []uint64
	foreignAt   uint64
	expectEpoch uint64
}

// planner speculatively plans requests in claim order until none remain.
func (b *batchRun) planner() {
	pc := b.m.getPlanCtx()
	defer b.m.putPlanCtx(pc)
	for {
		b.mu.Lock()
		for b.next < len(b.reqs) && b.next >= b.committed+b.window {
			b.cond.Wait()
		}
		i := b.next
		if i >= len(b.reqs) {
			b.mu.Unlock()
			return
		}
		b.next++
		b.mu.Unlock()

		p := b.m.getPlanBuf()
		r := &b.reqs[i]
		b.m.mu.RLock()
		p.seq = b.stateVer
		pc.plan(p, r.Src, r.Dst, r.Spec, r.Degrees, true)
		b.m.mu.RUnlock()

		b.mu.Lock()
		b.plans[i] = p
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// commitAll is the single committer: it consumes plans in request order,
// validates each against everything committed since its snapshot, re-plans
// the invalidated ones, and commits. Every request is one write transaction
// (the epoch advances on rejections too), matching the sequential loop.
func (b *batchRun) commitAll(res *BatchResult) {
	m := b.m
	for i := range b.reqs {
		b.mu.Lock()
		for b.plans[i] == nil {
			b.cond.Wait()
		}
		p := b.plans[i]
		b.plans[i] = nil
		b.mu.Unlock()

		end := m.beginWrite()
		if m.plan.epoch != b.expectEpoch+1 {
			// A non-batch writer slipped in between commits: its effects are
			// invisible to the version stamps, so distrust every plan
			// snapshotted before now.
			b.stateVer++
			b.foreignAt = b.stateVer
		}
		b.expectEpoch = m.plan.epoch
		if b.validate(p) {
			res.Planned++
		} else {
			r := &b.reqs[i]
			m.estCtx.plan(p, r.Src, r.Dst, r.Spec, r.Degrees, false)
			res.Replanned++
		}
		conn, err := m.commitPlan(p)
		if conn != nil {
			b.stateVer++
			for _, l := range p.prim.links {
				b.freeEpoch[l] = b.stateVer
			}
			for bi := 0; bi < p.nBackups; bi++ {
				for _, w := range p.backups[bi].wires {
					b.freeEpoch[w.link] = b.stateVer
					b.muxEpoch[w.link] = b.stateVer
				}
			}
		}
		end()

		res.record(i, conn, err)
		m.putPlanBuf(p)
		b.mu.Lock()
		b.committed++
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// validate decides, under the write lock, whether a speculative plan is
// still exactly the plan sequential establishment would produce now. It may
// repair the plan in place: a stale admission probe is re-run against the
// current Π structure (appending fresh wiring to the plan's arenas), and a
// probe that now fails turns the plan into the rejection the sequential
// loop would issue. Returns false only when the plan must be recomputed
// from scratch (routing no longer reproducible, strictness, foreign write).
func (b *batchRun) validate(p *connPlan) bool {
	if p.err != nil {
		// The *outcome* of a rejection is stable — a routing failure cannot
		// unhappen under shrinking free bandwidth, and admission failures
		// only worsen — but its *reason* is not: a plan that got as far as
		// backup 2 against older state may now fail at the primary, with a
		// different error. Bit-identity covers rejection errors, so a stale
		// rejection is replanned unless it depends on nothing mutable.
		return p.stable || p.seq == b.stateVer
	}
	if p.strict {
		return p.seq == b.stateVer
	}
	if p.seq < b.foreignAt {
		return false
	}
	m := b.m
	// Re-check every link the routing predicate approved whose bandwidth
	// account moved since the snapshot: if one fell below the request's
	// bandwidth, some search would have taken a different turn.
	bw := p.spec.Bandwidth
	for wi, word := range p.consulted.w {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			l := topology.LinkID(wi<<6 + bit)
			if b.freeEpoch[l] > p.seq && m.plan.net.Free(l) < bw-1e-9 {
				return false
			}
		}
	}
	// Re-probe admission on every backup link whose account or Π structure
	// moved. Paths are unchanged (checked above), Π decisions for old
	// entries are stable (they depend only on immutable primaries), but new
	// entries and grown requirements change the spare arithmetic, so the
	// probe is re-run and the wire record replaced. The first failure, in
	// backup-then-link order, is exactly where the sequential loop would
	// reject.
	pc := m.estCtx
	stamped := false
	for bi := 0; bi < p.nBackups; bi++ {
		bp := &p.backups[bi]
		for wi := range bp.wires {
			l := bp.wires[wi].link
			if b.freeEpoch[l] <= p.seq && b.muxEpoch[l] <= p.seq {
				continue
			}
			if !stamped {
				pc.cur = p
				pc.bw = bw
				pc.track = false
				m.plan.writeSig(pc.sig, p.prim.links, p.prim.nodes)
				stamped = true
			}
			w, err := pc.probeLink(p, bp, l)
			if err != nil {
				p.err = fmt.Errorf("core: backup %d multiplexing: %w", bi+1, err)
				return true
			}
			bp.wires[wi] = w
		}
	}
	return true
}

// getPlanCtx leases a pooled planner context with a pooled routing engine.
func (m *Manager) getPlanCtx() *planContext {
	if v := m.pcPool.Get(); v != nil {
		pc := v.(*planContext)
		pc.router = m.routers.Get()
		return pc
	}
	return newPlanContext(m, m.routers.Get(), routing.NewExclusion())
}

func (m *Manager) putPlanCtx(pc *planContext) {
	m.routers.Put(pc.router)
	pc.router = nil
	m.pcPool.Put(pc)
}

// getPlanBuf leases a reusable plan buffer.
func (m *Manager) getPlanBuf() *connPlan {
	if v := m.planPool.Get(); v != nil {
		return v.(*connPlan)
	}
	return &connPlan{}
}

func (m *Manager) putPlanBuf(p *connPlan) { m.planPool.Put(p) }
