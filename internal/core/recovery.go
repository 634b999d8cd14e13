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

// dropChannel tears down one live channel of a connection for
// TeardownChannel, updating mux state and the connection's lists.
func (m *Manager) dropChannel(conn *DConnection, ch *rtchan.Channel, touched map[topology.LinkID]struct{}) error {
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
	if err := m.plan.net.Teardown(ch.ID); err != nil || ch.Role == rtchan.RoleBackup {
		return err
	}
	m.settlePath(ch)
	return nil
}

// reconfigureLinks re-derives the Π structure of the given links from the
// surviving backups and settles their spare pools. Promotion changes
// primaries, which changes S values network-wide for the affected
// connections; the paper recomputes spare needs after recovery (§4.4). A
// link that can no longer afford its requirement keeps the pool its
// headroom allows: the corresponding backups are degraded (they may suffer
// multiplexing failures later), matching the paper's observation that
// backups may have to be closed or moved.
func (m *Manager) reconfigureLinks(touched map[topology.LinkID]struct{}) {
	for l := range touched {
		// A fresh link's rebuild would reproduce it (reconfig.go): skip it.
		if !m.coalesceReconfig || m.piStale[l] {
			m.recomputeLinkMux(l)
			m.piStale[l] = false
		}
		m.settle(l)
	}
}

// settlePath settles ch's links after its dedicated bandwidth was released.
func (m *Manager) settlePath(ch *rtchan.Channel) {
	for _, l := range ch.Path.Links() {
		m.settle(l)
	}
}
