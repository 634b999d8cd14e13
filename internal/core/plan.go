package core

import (
	"fmt"
	"math/rand"

	"github.com/rtcl/bcp/internal/idtab"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
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
	// connection, free rows listed in sigFree.
	sig       []uint64
	sigStride int
	sigFree   []int32
	qpowTab   []float64 // (1-λ)^k by k, backing simS
	epoch     uint64    // write-transaction counter (see Manager.PlanEpoch)
}

// trial evaluates a failure event against the plan without changing any
// reservation or connection state, returning the R_fast statistics the
// paper's Tables 1-3 report. Activations contend for each link's spare pool
// in the given order; a backup activates iff it is itself unaffected by the
// failure and every link of its path has enough unclaimed spare bandwidth.
//
// trial is a pure read over the plan: every mutation lands in the caller's
// scratch, so any number of trials may run concurrently over one plan as
// long as each carries its own scratch and no writer is active (TrialView
// arranges both).
func (p *NetworkPlan) trial(f Failure, order ActivationOrder, rng *rand.Rand, t *trialScratch) RecoveryStats {
	var stats RecoveryStats
	t.begin(p.net.Graph().NumLinks())

	// Discover the affected channels via the per-link/per-node indexes,
	// deduped and grouped by connection in the stamped scratch slices.
	add := func(ch *rtchan.Channel) {
		if !t.markChan(ch.ID) {
			return
		}
		slot := t.connSlot(ch.Conn)
		if ch.Role == rtchan.RolePrimary {
			t.connPrim[slot] = true
		} else {
			t.connBkup[slot]++
		}
	}
	f.eachLink(func(l topology.LinkID) {
		for _, ch := range p.net.ChannelsOnLink(l) {
			add(ch)
		}
	})
	f.eachNode(func(n topology.NodeID) {
		for _, ch := range p.net.ChannelsAtNode(n) {
			add(ch)
		}
	})

	needsRecovery := t.needs[:0]
	for _, connID := range t.conns {
		conn := p.conns.Get(connID)
		if conn == nil {
			continue
		}
		if f.nodeFailed(conn.Src) || f.nodeFailed(conn.Dst) {
			stats.ExcludedConns++
			continue
		}
		stats.FailedBackups += int(t.connBkup[connID])
		if t.connPrim[connID] {
			stats.FailedPrimaries++
			t.addDegree(firstDegree(conn), 1, 0)
			needsRecovery = append(needsRecovery, conn)
		}
	}

	needsRecovery = orderedConns(needsRecovery, order, rng)
	for _, conn := range needsRecovery {
		outcome := p.tryActivate(conn, t)
		switch outcome {
		case activated:
			stats.FastRecovered++
			t.addDegree(firstDegree(conn), 0, 1)
		case allBackupsDead:
			stats.BackupDead++
		case spareExhausted:
			stats.MuxFailed++
		}
	}
	t.needs = needsRecovery[:0]
	stats.ByDegree = t.degreeMap()
	return stats
}

// tryActivate walks the connection's backups in serial order, claiming
// spare bandwidth from the shared per-link pools recorded in the trial
// scratch. It reads the plan's mux state but never writes it. Whether the
// failure disabled a backup is the stamp trial left on it: the per-link and
// per-node indexes list a channel under every component of its path, end
// nodes included, so "stamped" is Failure.HitsPath without the path walk.
func (p *NetworkPlan) tryActivate(conn *DConnection, t *trialScratch) activationOutcome {
	bw := conn.Spec.Bandwidth
	sawHealthy := false
	for _, b := range conn.Backups {
		if t.hit(b.ID) {
			continue
		}
		sawHealthy = true
		links := b.Path.Links()
		ok := true
		for _, l := range links {
			var pool float64
			if t.pools != nil {
				pool = t.pools[l]
			} else {
				pool = p.mux[l].available()
			}
			if pool-t.claimed(l) < bw-1e-9 {
				ok = false
				break
			}
		}
		if ok {
			for _, l := range links {
				t.claim(l, bw)
			}
			if t.keepWinners {
				t.winners = append(t.winners, b)
			}
			return activated
		}
		// Multiplexing failure on this backup; reported like a component
		// failure, so the end nodes go on to try the next serial (§4.1).
	}
	if sawHealthy {
		return spareExhausted
	}
	return allBackupsDead
}

// TrialView is a cheap per-goroutine read view over a Manager's shared
// NetworkPlan. It bundles the scratch buffers one failure trial needs with
// the reader side of the Manager's writer boundary, making Trial safe to
// call concurrently from many goroutines over a single loaded network —
// the read-mostly workload of the paper's failure sweeps (§7).
//
// Views are not safe for concurrent use with themselves: create one view
// per goroutine (they are a few hundred bytes until their scratch grows).
// Trials observe a consistent plan: a concurrent writer (Establish,
// Teardown, Apply, ...) is serialized against them by the Manager's lock.
type TrialView struct {
	m       *Manager
	scratch trialScratch
}

// NewTrialView returns a fresh per-goroutine view over the manager's plan.
func (m *Manager) NewTrialView() *TrialView {
	return &TrialView{m: m}
}

// NewTrialViewWithPools returns a view whose trials are Manager.Trial's walk
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

// Trial evaluates a failure event read-only over the shared plan. See
// Manager.Trial for the statistics' meaning; results are identical.
func (v *TrialView) Trial(f Failure, order ActivationOrder, rng *rand.Rand) RecoveryStats {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	return v.m.plan.trial(f, order, rng, &v.scratch)
}

// PlanEpoch returns the plan's write-transaction counter at this instant.
// Two equal epochs bracket a span with no intervening writes, so readers
// holding derived state can cheaply validate it — the same discipline
// topology.Graph.Version provides for routing caches.
func (v *TrialView) PlanEpoch() uint64 { return v.m.PlanEpoch() }
