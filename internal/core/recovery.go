package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Failure is a set of (near-)simultaneously failed components. A failed
// node implicitly disables every channel whose path visits it; a failed
// simplex link disables the channels routed over it (its reverse-direction
// twin is a separate component, matching the paper's failure model).
//
// Both lists are sorted ascending and hold each component once. A trial
// ranges over them to find the disabled channels and searches nodes for the
// end nodes of each one it finds; the paper's failure models hold one or two
// components, so the search is a compare or two.
type Failure struct {
	links []topology.LinkID
	nodes []topology.NodeID
}

// NewFailure builds a failure from explicit component lists. Duplicates are
// collapsed.
func NewFailure(links []topology.LinkID, nodes []topology.NodeID) Failure {
	return Failure{links: sortedSet(links), nodes: sortedSet(nodes)}
}

// sortedSet returns a sorted, duplicate-free copy of xs (nil when empty).
func sortedSet[T cmp.Ordered](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// SingleLink is the paper's single-link failure model.
func SingleLink(l topology.LinkID) Failure {
	return Failure{links: []topology.LinkID{l}}
}

// SingleNode is the paper's single-node failure model.
func SingleNode(n topology.NodeID) Failure {
	return Failure{nodes: []topology.NodeID{n}}
}

// DoubleNode is the paper's double-node failure model.
func DoubleNode(a, b topology.NodeID) Failure {
	return NewFailure(nil, []topology.NodeID{a, b})
}

// LinkFailed reports whether link l failed.
func (f Failure) LinkFailed(l topology.LinkID) bool { return slices.Contains(f.links, l) }

// NodeFailed reports whether node n failed.
func (f Failure) NodeFailed(n topology.NodeID) bool { return slices.Contains(f.nodes, n) }

// Links returns the failed links, ascending.
func (f Failure) Links() []topology.LinkID { return slices.Clone(f.links) }

// Nodes returns the failed nodes, ascending.
func (f Failure) Nodes() []topology.NodeID { return slices.Clone(f.nodes) }

// HitsPath reports whether any component of path p failed (links or any
// visited node, including end nodes).
func (f Failure) HitsPath(p topology.Path) bool {
	return slices.ContainsFunc(p.Links(), f.LinkFailed) || slices.ContainsFunc(p.Nodes(), f.NodeFailed)
}

// ActivationOrder selects the order in which simultaneous backup activations
// contend for spare bandwidth.
type ActivationOrder uint8

const (
	// OrderByConn processes activations in connection-id (establishment)
	// order — the default, deterministic.
	OrderByConn ActivationOrder = iota
	// OrderByPriority processes smaller multiplexing degrees (more critical
	// connections) first: the paper's priority-based activation (§4.3).
	OrderByPriority
	// OrderRandom shuffles the activation order (models unsynchronized
	// control-message arrivals).
	OrderRandom
)

// DegreeStats is the per-multiplexing-degree breakdown used by Table 2.
type DegreeStats struct {
	FailedPrimaries int
	FastRecovered   int
}

// RecoveryStats summarizes one failure event.
type RecoveryStats struct {
	// ExcludedConns counts connections whose end nodes failed (outside the
	// paper's statistics).
	ExcludedConns int
	// FailedPrimaries counts disabled primary channels of non-excluded
	// connections — the denominator of R_fast.
	FailedPrimaries int
	// FastRecovered counts connections restored by backup activation — the
	// numerator of R_fast.
	FastRecovered int
	// BackupDead counts connections that could not recover because every
	// backup was itself disabled by the failure.
	BackupDead int
	// MuxFailed counts connections that had a healthy backup but lost the
	// race for spare bandwidth (multiplexing failure).
	MuxFailed int
	// FailedBackups counts backup channels (of non-excluded connections)
	// disabled by the failure, whether or not their primary failed.
	FailedBackups int
	// ByDegree breaks FailedPrimaries/FastRecovered down by the
	// connection's first-backup multiplexing degree (Table 2). Entries are
	// values, not pointers: a trial populates the map without per-class
	// heap allocations, and snapshots compare with ==.
	ByDegree map[int]DegreeStats
}

// RFast returns the paper's fast-recovery ratio.
func (s RecoveryStats) RFast() float64 {
	if s.FailedPrimaries == 0 {
		return 1
	}
	return float64(s.FastRecovered) / float64(s.FailedPrimaries)
}

// orderConns puts the dense indexes of the connections needing activation,
// ascending (so in connection-id order), in the given order; recs is the
// snapshot's connection table.
func orderConns(needs []int32, recs []connRec, order ActivationOrder, rng *rand.Rand) {
	switch order {
	case OrderByPriority:
		slices.SortStableFunc(needs, func(a, b int32) int { return int(recs[a].deg) - int(recs[b].deg) })
	case OrderRandom:
		if rng != nil {
			rng.Shuffle(len(needs), func(i, j int) { needs[i], needs[j] = needs[j], needs[i] })
		}
	}
}

func firstDegree(c *DConnection) int {
	if len(c.Degrees) == 0 {
		return 1 << 30
	}
	return c.Degrees[0]
}

// Apply executes a failure event against live state: winning backups claim
// spare bandwidth and are promoted to primaries; failed channels are torn
// down; spare pools are re-sized (§4.4 resource reconfiguration). It returns
// the same statistics as TrialView.Trial, because that walk is what decides
// them.
//
// Connections that lose every channel are torn down entirely (the paper
// informs the client of the unrecoverable failure; re-establishment from
// scratch is the client's retry).
func (m *Manager) Apply(f Failure, order ActivationOrder, rng *rand.Rand) (RecoveryStats, error) {
	defer m.beginWrite()()
	return m.apply(f, order, rng)
}

func (m *Manager) apply(f Failure, order ActivationOrder, rng *rand.Rand) (RecoveryStats, error) {
	// Phase 1: the trial itself, over the writer's own scratch, decides who
	// recovers against the pre-failure spare sizing. This write has already
	// moved the epoch, so the trial recopies the snapshot: one copy per call.
	// The trial leaves behind the affected connections (t.conns), the stamp
	// on every disabled channel and the activated backups in activation
	// order (t.winners), whose claims are then made real. The snapshot stays
	// the pre-failure copy while phase 2 rewrites the plan under it.
	t := &m.applyTrial
	stats := m.plan.trial(f, order, rng, t)
	s := &t.snap
	for _, b := range t.winners {
		bk := &s.backups[b]
		for _, l := range s.bkLinks[bk.l0:bk.l1] {
			m.plan.mux[l].claimed += bk.ch.Bandwidth()
		}
	}

	// Phase 2: reconfiguration — promote winners, tear down failed
	// channels, resize spare pools — connection by connection in id order so
	// runs are reproducible. The walk is over t.conns, not the connections
	// the statistics counted: trial leaves a connection whose end node
	// failed out of the numbers, and it is torn down all the same. Dense
	// indexes sort as ids do, and a backup's dense index as its connection's.
	slices.Sort(t.conns)
	slices.Sort(t.winners)
	winners := t.winners
	touched := m.takeTouched()
	var failed []*rtchan.Channel
	for _, c := range t.conns {
		rec := &s.conns[c]
		conn := m.plan.conns.Get(rec.id)
		// Collected before promotion, which overwrites conn.Primary.
		failed = failed[:0]
		if t.primaryHit(c) {
			failed = append(failed, conn.Primary)
		}
		for b := rec.bk0; b < rec.bk1; b++ {
			if t.backupHit(b) {
				failed = append(failed, s.backups[b].ch)
			}
		}
		// Earlier connections took their winners, so winners[0] >= rec.bk0.
		if len(winners) > 0 && winners[0] < rec.bk1 {
			if err := m.promoteBackup(conn, s.backups[winners[0]].ch, touched); err != nil {
				return stats, err
			}
			winners = winners[1:]
		}
		for _, ch := range failed {
			if err := m.dropChannel(conn, ch, touched); err != nil {
				return stats, err
			}
		}
		// A connection with no primary left (recovery failed or excluded)
		// loses all its channels: release the survivors too.
		if conn.Primary == nil {
			for len(conn.Backups) > 0 {
				if err := m.dropChannel(conn, conn.Backups[0], touched); err != nil {
					return stats, err
				}
			}
			m.forget(conn)
		}
	}

	// Phase 3: spare pools on every touched link are recomputed from the
	// surviving backup population.
	return stats, m.reconfigureLinks(touched)
}

// promoteBackup converts a claimed backup into the connection's primary:
// the claimed spare becomes dedicated bandwidth on each link of its path.
func (m *Manager) promoteBackup(conn *DConnection, b *rtchan.Channel, touched map[topology.LinkID]struct{}) error {
	bw := b.Bandwidth()
	for _, l := range b.Path.Links() {
		lm := &m.plan.mux[l]
		// Drop the mux entry without resizing: the pool shrink happens
		// explicitly, converting the claim into dedicated bandwidth.
		if idx := lm.find(b.ID); idx >= 0 {
			m.plan.unwire(lm, idx)
		}
		lm.claimed -= bw
		if err := m.plan.net.SetSpare(l, max(m.plan.net.Spare(l)-bw, 0)); err != nil {
			return fmt.Errorf("core: promote shrink on link %d: %w", l, err)
		}
		touched[l] = struct{}{}
	}
	if err := m.plan.net.Promote(b.ID); err != nil {
		return err
	}
	// The connection's channel lists: the winner becomes the primary.
	conn.unlistBackup(b.ID)
	conn.Primary = b
	m.primaryChanged(conn)
	// The new primary path changes every S(·,·) involving this connection:
	// all links hosting its remaining backups must re-derive their Π sets.
	for _, rb := range conn.Backups {
		for _, l := range rb.Path.Links() {
			touched[l] = struct{}{}
		}
	}
	return nil
}

// dropChannel tears down one channel of a connection (failed component or
// released survivor), updating mux state and the connection's lists.
func (m *Manager) dropChannel(conn *DConnection, ch *rtchan.Channel, touched map[topology.LinkID]struct{}) error {
	if m.plan.net.Channel(ch.ID) == nil {
		return nil // already dropped (e.g. promoted then listed again)
	}
	if ch.Role == rtchan.RoleBackup {
		for _, l := range ch.Path.Links() {
			m.removeBackupFromLink(l, ch)
			touched[l] = struct{}{}
		}
		conn.unlistBackup(ch.ID)
	} else if conn.Primary != nil && conn.Primary.ID == ch.ID {
		conn.Primary = nil
		m.primaryChanged(conn)
	}
	return m.plan.net.Teardown(ch.ID)
}

// reconfigureLinks re-derives the Π structure and spare sizing of the given
// links from the surviving backups. Promotion changes primaries, which
// changes S values network-wide for the affected connections; the paper
// recomputes spare needs after recovery (§4.4). If a link can no longer
// afford its required spare, the requirement is capped at the available
// headroom — the corresponding backups are degraded (they may suffer
// multiplexing failures later), matching the paper's observation that
// backups may have to be closed or moved.
func (m *Manager) reconfigureLinks(touched map[topology.LinkID]struct{}) error {
	for l := range touched {
		var err error
		if m.coalesceReconfig && !m.piStale[l] {
			// The link's pair decisions are still derived from current
			// primaries; only the pool sizing can have shifted (see
			// reconfig.go for why this is exact, not approximate).
			err = m.resizeLink(l)
		} else {
			err = m.recomputeLinkMux(l)
			m.piStale[l] = false
		}
		if err != nil {
			// Cap at headroom rather than failing recovery.
			head := m.plan.net.Capacity(l) - m.plan.net.Dedicated(l)
			if err2 := m.plan.net.SetSpare(l, max(head, 0)); err2 != nil {
				return err2
			}
		}
	}
	return nil
}
