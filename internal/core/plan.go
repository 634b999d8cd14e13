package core

import (
	"fmt"
	"math/rand"

	"github.com/rtcl/bcp/internal/idtab"
	"github.com/rtcl/bcp/internal/rtchan"
)

// NetworkPlan is the shared half of the control plane: the state the paper's
// tables are computed from, frozen between write transactions. It holds the
// topology and reservation substrate, the established D-connections, the
// per-link multiplexing structure (Π sets, spare sizing, activation claims),
// and the primary-signature slab S(Bi,Bj) is evaluated from.
//
// A plan is mutated only by its owning Manager, under the Manager's writer
// lock; between writes it is immutable and may be read by any number of
// goroutines concurrently (each through its own TrialView, which carries the
// per-goroutine scratch a trial needs). The epoch field counts write
// transactions — the control-plane analogue of topology.Graph.Version —
// so derived read-side state can detect that the plan changed underneath it.
type NetworkPlan struct {
	cfg Config
	net *rtchan.Network
	// conns is keyed by connection id; ids are minted in establishment
	// order, so its ascending walk is the deterministic iteration order.
	conns idtab.Table[rtchan.ConnID, DConnection]
	mux   []linkMux // one per link
	// sig is the primary-signature slab (sig.go): sigStride words per live
	// connection, free rows listed in sigFree. Words 1..sigNodeWords hold the
	// node bits of the graph's sigNodes nodes, the last of them under
	// sigNodeMask.
	sig          []uint64
	sigStride    int
	sigNodes     int
	sigNodeWords int
	sigNodeMask  uint64
	sigFree      []int32
	thr          piThresholds // the Π decision's integer thresholds (sig.go)
	epoch        uint64       // write-transaction counter (see Manager.PlanEpoch)
}

// trial evaluates a failure event against the plan without changing any
// reservation or connection state, returning the R_fast statistics the
// paper's Tables 1-3 report. Activations contend for each link's spare pool
// in the given order; a backup activates iff it is itself unaffected by the
// failure and every link of its path has enough unclaimed spare bandwidth.
//
// trial is a pure read over the plan: it reads the plan through the
// snapshot in the caller's scratch, recopied when the plan's epoch has moved,
// and every mutation lands in that scratch, so any number of trials may run
// concurrently over one plan as long as each carries its own scratch and no
// writer is active (TrialView arranges both).
func (p *NetworkPlan) trial(f Failure, order ActivationOrder, rng *rand.Rand, t *trialScratch) RecoveryStats {
	var stats RecoveryStats
	s := t.begin(p)

	// Discover and count the disabled channels: the refs of every failed
	// link; for every failed node, the refs of its out-links and the refs
	// that end on its in-links (trialSnapshot), so each channel that visits
	// the node is stamped once.
	for _, l := range f.links {
		for _, r := range s.onLink(l) {
			t.mark(r, &f, &stats)
		}
	}
	g := p.net.Graph()
	for _, n := range f.nodes {
		for _, l := range g.Out(n) {
			for _, r := range s.onLink(l) {
				t.mark(r, &f, &stats)
			}
		}
		for _, l := range g.In(n) {
			for _, r := range s.endingOn(l) {
				t.mark(r, &f, &stats)
			}
		}
	}

	needs := t.need.drain(t.needs[:0])
	orderConns(needs, s.conns, order, rng)
	for _, c := range needs {
		t.activate(c, &stats)
	}
	t.needs = needs[:0]
	clear(t.claim)
	stats.ByDegree = t.degreeMap()
	return stats
}

// activate walks connection c's backups in serial order, claiming spare
// bandwidth from the per-link pools in the snapshot and recording the
// winner, and counts the outcome into stats; the claims live in the
// scratch, never in the plan. Whether the
// failure disabled a backup is the stamp discovery left on it: the snapshot
// lists a backup under every link of its path, and so under a link of every
// node it visits, end nodes included, so "stamped" is Failure.HitsPath
// without the path walk.
func (t *trialScratch) activate(c int32, stats *RecoveryStats) {
	s := &t.snap
	rec := &s.conns[c]
	bw := rec.bw
	sawHealthy := false
	for b := rec.bk0; b < rec.bk1; b++ {
		if t.backupHit(b) {
			continue
		}
		sawHealthy = true
		bk := &s.backups[b]
		links := s.bkLinks[bk.l0:bk.l1]
		ok := true
		for _, l := range links {
			if s.avail[l]-t.claim[l] < bw-1e-9 {
				ok = false
				break
			}
		}
		if ok {
			for _, l := range links {
				t.claim[l] += bw
			}
			t.winners = append(t.winners, b)
			stats.FastRecovered++
			t.degStat[rec.dcls].FastRecovered++
			return
		}
		// Multiplexing failure on this backup; reported like a component
		// failure, so the end nodes go on to try the next serial (§4.1).
	}
	if sawHealthy {
		stats.MuxFailed++
	} else {
		stats.BackupDead++
	}
}

// TrialView is the one read entry point to failure trials: a cheap
// per-goroutine view over a Manager's shared NetworkPlan. It bundles the
// scratch buffers one failure trial needs with the reader side of the
// Manager's writer boundary, making Trial safe to call concurrently from
// many goroutines over a single loaded network — the read-mostly workload
// of the paper's failure sweeps (§7). A serial caller holds one view.
//
// Views are not safe for concurrent use with themselves: create one view
// per goroutine. A view is a few hundred bytes until its first trial copies
// the plan into its snapshot (≈0.7 MB on the 4,032-connection torus).
// Trials observe a consistent plan: a concurrent writer (Establish,
// Teardown, Apply, ...) is serialized against them by the Manager's lock,
// and the next trial after a write recopies the snapshot.
type TrialView struct {
	m       *Manager
	scratch trialScratch
}

// NewTrialView returns a fresh per-goroutine view over the manager's plan.
func (m *Manager) NewTrialView() *TrialView {
	return &TrialView{m: m}
}

// NewTrialViewWithPools returns a view whose trials are NewTrialView's walk
// (same discovery, exclusions, activation order and serial-backup rule) with
// one number per link changed: activations on link l draw from pools[l]
// instead of the spare the multiplexing engine sized there. The view keeps
// pools, which must hold one entry per link and not change afterwards.
func (m *Manager) NewTrialViewWithPools(pools []float64) *TrialView {
	if len(pools) != m.Graph().NumLinks() {
		panic(fmt.Sprintf("core: %d pools for %d links", len(pools), m.Graph().NumLinks()))
	}
	return &TrialView{m: m, scratch: trialScratch{pools: pools}}
}

// Trial evaluates a failure event without changing any reservation or
// connection state, returning the R_fast statistics the paper's Tables 1-3
// report. Activations contend for each link's spare pool in the given
// order; a backup activates iff it is itself unaffected by the failure and
// every link of its path has enough unclaimed spare bandwidth.
func (v *TrialView) Trial(f Failure, order ActivationOrder, rng *rand.Rand) RecoveryStats {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	return v.m.plan.trial(f, order, rng, &v.scratch)
}
