package core

import (
	"fmt"
	"math"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// The methods in this file expose the resource plane to the message-level
// protocol engine (internal/bcpd): spare-bandwidth claims made as activation
// messages cross links, promotion of a fully-claimed backup, and single
// channel teardown driven by rejoin-timer expiry.
//
// Claims are keyed by channel so that the bidirectional activation of
// Scheme 3 — where the source-side and destination-side activation messages
// can both try to claim the same link — stays idempotent.

// SetProtocolTrace attaches a protocol-event sink to the resource plane's
// claim paths (claim, release, convert, preempt, multiplexing failure,
// rejoin re-registration).
// clock supplies timestamps — the protocol engine passes its *sim.Engine.
// A nil sink disables emission; the residual cost is one branch per call.
func (m *Manager) SetProtocolTrace(s trace.Sink, clock trace.Clock) {
	defer m.beginWrite()()
	m.traceEm = trace.NewEmitter(s)
	m.traceClock = clock
}

// emitClaim records a claim-path event. Callers must hold the write lock
// and have checked m.traceEm.Enabled(). The channel is resolved to its
// connection so stream consumers can attribute claims without a side table.
func (m *Manager) emitClaim(kind trace.Kind, l topology.LinkID, ch rtchan.ChannelID, aux int64) {
	var conn rtchan.ConnID
	if c := m.plan.net.Channel(ch); c != nil {
		conn = c.Conn
	}
	m.traceEm.Emit(trace.Event{
		At:      m.traceClock.Now(),
		Kind:    kind,
		Node:    topology.NoNode,
		Link:    l,
		Conn:    conn,
		Channel: ch,
		Aux:     aux,
	})
}

// ClaimSpareFor claims bw of spare bandwidth on link l for backup channel
// ch; a repeated claim by the same channel is a no-op success. With preempt
// set, a link short of spare gives up the claim of a lower-priority backup
// (§4.3), returned as victim: the caller handles it as if disabled by a
// component failure. ok false is a multiplexing failure on this link (§3.3),
// already on the protocol trace.
func (m *Manager) ClaimSpareFor(l topology.LinkID, ch rtchan.ChannelID, bw float64, preempt bool) (victim rtchan.ChannelID, ok bool) {
	defer m.beginWrite()()
	return m.claim(l, ch, bw, preempt)
}

// claim is the one claim decision. Preemption evicts the held claim of the
// largest degree above ch's own that frees enough spare, the lowest channel
// id among equals so the choice never depends on map order. A final failure
// emits KindMuxFailure naming l, the shortfall in Aux (kbit/s, rounded up).
func (m *Manager) claim(l topology.LinkID, ch rtchan.ChannelID, bw float64, preempt bool) (victim rtchan.ChannelID, ok bool) {
	lm := &m.plan.mux[l]
	if _, dup := lm.claims[ch]; dup {
		return 0, true
	}
	if avail := m.plan.available(l); avail < bw-1e-9 {
		if preempt {
			victimDegree := m.degreeOf(ch)
			for held, heldBW := range lm.claims {
				if heldBW+avail < bw-1e-9 {
					continue // evicting this claim would not free enough
				}
				if d := m.degreeOf(held); d > victimDegree || (d == victimDegree && victim != 0 && held < victim) {
					victim, victimDegree = held, d
				}
			}
			if victim != 0 {
				m.releaseClaimFor(l, victim)
				avail = m.plan.available(l)
			}
		}
		if avail < bw-1e-9 {
			if m.traceEm.Enabled() {
				m.emitClaim(trace.KindMuxFailure, l, ch, int64(math.Ceil((bw-avail)*1000)))
			}
			return 0, false
		}
	}
	if lm.claims == nil {
		lm.claims = make(map[rtchan.ChannelID]float64)
	}
	lm.claims[ch] = bw
	lm.claimed += bw
	if m.traceEm.Enabled() {
		m.emitClaim(trace.KindClaim, l, ch, 0)
		if victim != 0 {
			m.emitClaim(trace.KindPreempt, l, ch, int64(victim))
		}
	}
	return victim, true
}

// DegreeOf returns the multiplexing degree of a backup channel, or a very
// large value when unknown (primaries and foreign channels are never
// preempted).
func (m *Manager) DegreeOf(ch rtchan.ChannelID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.degreeOf(ch)
}

func (m *Manager) degreeOf(ch rtchan.ChannelID) int {
	c := m.plan.net.Channel(ch)
	if c == nil {
		return 1 << 30
	}
	conn := m.plan.conns.Get(c.Conn)
	if conn == nil {
		return 1 << 30
	}
	for i, b := range conn.Backups {
		if b.ID == ch {
			return conn.Degrees[i]
		}
	}
	return 1 << 30
}

// ClaimBatch claims bw of spare bandwidth on every link of links for backup
// channel ch under a single write transaction. Decisions are bit-identical
// to a sequential ClaimSpareFor loop without preemption: links are claimed
// in slice order and the first multiplexing failure stops the batch,
// leaving the earlier claims in place (exactly the state the abandoned loop
// would leave for the caller to release). It returns the index of the failing link and false, or
// len(links) and true when every claim was admitted.
func (m *Manager) ClaimBatch(links []topology.LinkID, ch rtchan.ChannelID, bw float64) (int, bool) {
	defer m.beginWrite()()
	return m.claimBatch(links, ch, bw)
}

func (m *Manager) claimBatch(links []topology.LinkID, ch rtchan.ChannelID, bw float64) (int, bool) {
	for i, l := range links {
		if _, ok := m.claim(l, ch, bw, false); !ok {
			return i, false
		}
	}
	return len(links), true
}

// ReleaseClaimBatch undoes ch's claims on every link of links under a single
// write transaction (e.g. when an activation is abandoned after a downstream
// multiplexing failure). Links holding no claim for ch are skipped.
func (m *Manager) ReleaseClaimBatch(links []topology.LinkID, ch rtchan.ChannelID) {
	defer m.beginWrite()()
	for _, l := range links {
		m.releaseClaimFor(l, ch)
	}
}

func (m *Manager) releaseClaimFor(l topology.LinkID, ch rtchan.ChannelID) {
	lm := &m.plan.mux[l]
	if bw, ok := lm.claims[ch]; ok {
		delete(lm.claims, ch)
		lm.claimed -= bw
		if m.traceEm.Enabled() {
			m.emitClaim(trace.KindClaimRelease, l, ch, 0)
		}
	}
}

// OutstandingClaims counts the spare-bandwidth claims currently held across
// every link. Claims are transient — made as activation messages cross links,
// then converted (promotion) or released (abandonment, teardown) — so at any
// protocol-quiescent point the count must be zero; a positive count there
// means some recovery path leaked its claim.
func (m *Manager) OutstandingClaims() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for i := range m.plan.mux {
		n += len(m.plan.mux[i].claims)
	}
	return n
}

// ActivateClaimed promotes backup b of conn to primary after the protocol
// has claimed spare bandwidth on every link of its path, and re-sizes the
// spare pools of the touched links (§4.4 reconfiguration). Links missing a
// claim are claimed here (covering the race where both end-node activations
// stop exactly at the meeting node).
func (m *Manager) ActivateClaimed(connID rtchan.ConnID, b *rtchan.Channel) error {
	defer m.beginWrite()()
	conn := m.plan.conns.Get(connID)
	if conn == nil {
		return fmt.Errorf("core: unknown connection %d", connID)
	}
	bw := b.Bandwidth()
	if i, ok := m.claimBatch(b.Path.Links(), b.ID, bw); !ok {
		return fmt.Errorf("core: link %d has no claim and no spare for channel %d", b.Path.Links()[i], b.ID)
	}
	touched := m.takeTouched()
	for _, l := range b.Path.Links() {
		// The bandwidth stays in the link's claimed total until promoteBackup
		// turns it into dedicated bandwidth.
		delete(m.plan.mux[l].claims, b.ID)
		if m.traceEm.Enabled() {
			m.emitClaim(trace.KindClaimConvert, l, b.ID, 0)
		}
	}
	if err := m.promoteBackup(conn, b, touched); err != nil {
		return err
	}
	m.reconfigureLinks(touched)
	return nil
}

// TeardownChannel removes a single channel of a connection (rejoin-timer
// expiry or channel-closure, §4.4) and re-sizes affected spare pools. If the
// connection ends with no channels at all it is deleted.
func (m *Manager) TeardownChannel(connID rtchan.ConnID, ch rtchan.ChannelID) error {
	defer m.beginWrite()()
	conn := m.plan.conns.Get(connID)
	if conn == nil {
		return fmt.Errorf("core: unknown connection %d", connID)
	}
	c := m.plan.net.Channel(ch)
	if c == nil {
		return nil // already gone
	}
	// Abandon any outstanding claims.
	for _, l := range c.Path.Links() {
		m.releaseClaimFor(l, ch)
	}
	touched := m.takeTouched()
	if err := m.dropChannel(conn, c, touched); err != nil {
		return err
	}
	if conn.Primary == nil && len(conn.Backups) == 0 {
		m.forget(conn)
	}
	m.reconfigureLinks(touched)
	return nil
}

// RestoreAsBackup re-registers a repaired channel (rejoin, state U -> B,
// Figure 6): the channel keeps its identity but re-enters the multiplexing
// engine as a backup with the given degree. Fails if the spare pools can no
// longer accommodate it; a primary is then left demoted and unlisted, its
// dedicated bandwidth released and its links already settled, until the
// caller tears it down (TeardownChannel), as bcpd's abandonRejoin does.
func (m *Manager) RestoreAsBackup(connID rtchan.ConnID, ch rtchan.ChannelID, alpha int) error {
	defer m.beginWrite()()
	conn := m.plan.conns.Get(connID)
	if conn == nil {
		return fmt.Errorf("core: unknown connection %d", connID)
	}
	c := m.plan.net.Channel(ch)
	if c == nil {
		return fmt.Errorf("core: unknown channel %d", ch)
	}
	for _, b := range conn.Backups {
		if b.ID == ch {
			return nil // still registered
		}
	}
	if c.Role == rtchan.RolePrimary {
		// A repaired primary rejoins as a backup: release its dedicated
		// bandwidth first. If it was still listed as the connection's
		// primary (no backup was ever activated), the connection is left
		// primary-less until an activation promotes the rejoined channel.
		if err := m.plan.net.Demote(ch); err != nil {
			return err
		}
		m.settlePath(c)
		if conn.Primary != nil && conn.Primary.ID == ch {
			conn.Primary = nil
			m.primaryChanged(conn)
		}
	}
	if err := m.addBackup(conn, c, alpha); err != nil {
		return err
	}
	conn.listBackup(c, alpha)
	if m.traceEm.Enabled() {
		m.traceEm.Emit(trace.Event{
			At:      m.traceClock.Now(),
			Kind:    trace.KindInstall,
			Node:    topology.NoNode,
			Link:    topology.NoLink,
			Conn:    connID,
			Channel: ch,
			To:      trace.StateB,
			Aux:     int64(c.Path.Hops()),
		})
	}
	return nil
}
