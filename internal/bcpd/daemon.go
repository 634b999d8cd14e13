package bcpd

import (
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/wire"
)

// wireControl aliases the control-message type for brevity.
type wireControl = wire.Control

// chanState is the per-node channel state of Figure 4.
type chanState uint8

const (
	stateN chanState = iota // non-existent
	stateP                  // healthy primary
	stateB                  // healthy backup
	stateU                  // unhealthy
)

// String is trace.State's: the two enumerations share their N/P/B/U order.
func (s chanState) String() string { return trace.State(s).String() }

// daemon is the BCP daemon at one node: an identity and a liveness bit. Its
// per-channel soft state is its slot in each channel's record (soft.go).
// RepairNode replaces the object, so a timer armed before a crash still
// finds dead set.
type daemon struct {
	net  *Network
	id   topology.NodeID
	dead bool
}

// State returns the daemon's state for a channel (stateN when unknown).
func (d *daemon) State(ch rtchan.ChannelID) chanState {
	r, i := d.hop(ch)
	return r.state(i)
}

// hop returns a channel's record and this node's position in it: -1 without
// a record or off the path.
func (d *daemon) hop(chID rtchan.ChannelID) (*chanSoft, int) {
	if r := d.net.soft.tab.Get(chID); r != nil {
		return r, r.ch.Path.IndexOfNode(d.id)
	}
	return nil, -1
}

// at is hop plus the channel itself: the registry's, else the record's only
// if TeardownConnection retired it. A record that merely outlives the
// registry entry does not make the channel known.
func (d *daemon) at(chID rtchan.ChannelID) (*rtchan.Channel, *chanSoft, int) {
	r, i := d.hop(chID)
	return d.net.channel(chID, r), r, i
}

// channel applies at's rule given the id's record (nil if none).
func (n *Network) channel(id rtchan.ChannelID, r *chanSoft) *rtchan.Channel {
	if r != nil && r.retired {
		return r.ch
	}
	return n.mgr.Network().Channel(id)
}

// setState moves hop i of r to s. The record goes with its last live hop:
// r is not to be used after a transition to N.
func (d *daemon) setState(r *chanSoft, i int, s chanState) {
	if d.setHop(r, i, s) {
		d.net.freeSoft(r)
	}
}

// setHop is setState short of freeing: it reports whether the move left r
// without a live hop. A hop back in N drops the rest of its soft state.
func (d *daemon) setHop(r *chanSoft, i int, s chanState) (emptied bool) {
	h := &r.hops[i]
	old := h.state
	if old == s {
		return false
	}
	h.state = s
	if d.net.em.Enabled() {
		d.net.emitState(d.id, r.ch.ID, old, s)
	}
	switch {
	case old == stateN:
		r.live++
	case s == stateN:
		h.failed = false
		if i == 0 {
			r.probe = nil
		}
		r.live--
	}
	return r.live == 0
}

// install seeds every hop of ch with state s.
func (n *Network) install(ch *rtchan.Channel, s chanState) {
	r := n.softFor(ch)
	for i, v := range ch.Path.Nodes() {
		n.nodes[v].setState(r, i, s)
	}
}

// handleControl dispatches a control message delivered by an RCC.
func (d *daemon) handleControl(c wireControl) {
	if d.dead {
		return
	}
	switch c.Type {
	case wire.MsgFailureReport:
		d.handleFailureReport(c)
	case wire.MsgActivation:
		d.handleActivation(c)
	case wire.MsgRejoinRequest:
		d.handleRejoinRequest(c)
	case wire.MsgRejoin:
		d.handleRejoin(c)
	case wire.MsgChannelClosure:
		d.handleClosure(c)
	case wire.MsgLinkFailure:
		d.handleLinkFailureNotify(c)
	}
}

// forwardAlong sends control c to the neighbor in c.Toward direction along
// channel ch's path, over the corresponding RCC. Reports traveling into a
// failed link are lost, exactly as in the paper — the failure itself (or the
// other direction's report) covers the remaining segment. ch may already be
// gone from the resource plane: its route is the daemons' forwarding state,
// so teardown closures still propagate hop by hop.
func (d *daemon) forwardAlong(ch *rtchan.Channel, c wireControl) {
	p := ch.Path
	idx := p.IndexOfNode(d.id)
	if idx < 0 {
		return
	}
	nodes := p.Nodes()
	links := p.Links()
	g := d.net.mgr.Graph()
	var l topology.LinkID
	switch {
	case c.Toward > 0 && idx < len(nodes)-1:
		// Control flow toward the destination uses the channel link when
		// healthy; the RCC rides the same physical link.
		l = links[idx]
	case c.Toward < 0 && idx > 0:
		// Toward the source: the reverse-direction link's RCC.
		l = g.Reverse(links[idx-1])
		if l == topology.NoLink {
			return
		}
	default:
		return // already at the end node
	}
	d.net.submitControl(l, c)
}

// send originates a control of type t for channel ch at this node and
// forwards it toward the destination (+1) or the source (-1).
func (d *daemon) send(ch *rtchan.Channel, t wire.MsgType, toward int8) {
	d.forwardAlong(ch, wireControl{Type: t, Channel: int64(ch.ID), Origin: int32(d.id), Toward: toward})
}

// --- Failure reporting (§4.1, §4.2) -----------------------------------

// originateFailureReport is called on the neighbor node that detected a
// component failure affecting channel ch (or on a node detecting a
// multiplexing failure). It processes the report locally and propagates it.
func (d *daemon) originateFailureReport(ch rtchan.ChannelID, toward int8) {
	if d.dead {
		return
	}
	d.net.stats.ReportsGenerated++
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindReportOriginate, d.id, ch, int64(toward))
	}
	d.handleFailureReport(wireControl{
		Type:    wire.MsgFailureReport,
		Channel: int64(ch),
		Origin:  int32(d.id),
		Toward:  toward,
	})
}

func (d *daemon) handleFailureReport(c wireControl) {
	ch, r, idx := d.at(rtchan.ChannelID(c.Channel))
	if ch == nil {
		return
	}
	switch r.state(idx) {
	case stateU:
		return // duplicates ignored in state U (Figure 4)
	case stateN:
		return
	}
	d.setState(r, idx, stateU)
	d.armRejoinTimer(r, idx)

	atSource := idx == 0
	atDest := idx == len(r.hops)-1
	if (c.Toward < 0 && atSource) || (c.Toward > 0 && atDest) {
		d.endNodeFailureAction(r, idx)
		return
	}
	d.forwardAlong(ch, c)
}

// endNodeFailureAction runs at a channel end node that has just learned of
// the channel's failure: record backup health, switch primaries, schedule
// the rejoin probe.
func (d *daemon) endNodeFailureAction(r *chanSoft, idx int) {
	ch := r.ch
	conn := d.net.mgr.Connection(ch.Conn)
	if conn == nil {
		return
	}
	if ch.Role == rtchan.RoleBackup {
		r.hops[idx].failed = true
		// Abandon any claims the dead activation holds.
		d.net.mgr.ReleaseClaimBatch(ch.Path.Links(), ch.ID)
	}
	isPrimary := conn.Primary != nil && conn.Primary.ID == ch.ID
	// A failed backup matters when the primary is already down: the end
	// node moves on to the next serial.
	if isPrimary || d.primaryDown(conn) {
		d.initiateSwitch(conn)
	}
	if ch.Path.Source() == d.id {
		d.scheduleRejoinProbe(r)
	}
}

// primaryDown reports whether this end node believes the connection's
// current primary is unhealthy.
func (d *daemon) primaryDown(conn *core.DConnection) bool {
	if conn.Primary == nil {
		return true
	}
	return d.State(conn.Primary.ID) == stateU
}

// initiateSwitch selects the lowest-serial backup not known to have failed
// and starts activation from this end, per the configured scheme.
func (d *daemon) initiateSwitch(conn *core.DConnection) {
	scheme := d.net.cfg.Scheme
	atSource := d.id == conn.Src
	atDest := d.id == conn.Dst
	switch {
	case atSource && scheme == Scheme1:
		return // scheme 1 activates from the destination only
	case atDest && scheme == Scheme2:
		return // scheme 2 activates from the source only
	case !atSource && !atDest:
		return
	}
	// An activation already in progress from this end: wait for it to
	// complete or to be reported failed before trying another serial.
	for _, b := range conn.Backups {
		if d.usable(b.ID, stateP) {
			return
		}
	}
	for _, b := range conn.Backups {
		if !d.usable(b.ID, stateB) {
			continue
		}
		if unit := d.net.cfg.PriorityDelayUnit; unit > 0 {
			// Delayed activation (§4.3): lower-priority backups wait in
			// proportion to their multiplexing degree so that critical
			// connections claim spare bandwidth first.
			b := b
			wait := sim.Duration(d.net.mgr.DegreeOf(b.ID)) * unit
			d.net.rt.Schedule(wait, func() {
				if d.dead || !d.usable(b.ID, stateB) {
					d.initiateSwitch(conn) // this serial died while waiting
					return
				}
				d.startActivation(conn, b, atSource)
			})
			return
		}
		d.startActivation(conn, b, atSource)
		return
	}
	// No usable backup: the connection needs re-establishment from scratch
	// (out of protocol scope; the rejoin timers will reclaim resources).
}

// usable reports whether this end node holds backup b in state s and has no
// failure report for it.
func (d *daemon) usable(b rtchan.ChannelID, s chanState) bool {
	r, i := d.hop(b)
	return r.state(i) == s && !r.hops[i].failed
}

// startActivation activates backup b from this end node: local switch,
// claim on the adjacent link, and an activation message down the path.
func (d *daemon) startActivation(conn *core.DConnection, b *rtchan.Channel, fromSource bool) {
	d.net.stats.ActivationsStarted++
	if d.net.em.Enabled() {
		var aux int64
		if fromSource {
			aux = 1
		}
		d.net.emitChan(trace.KindActivationStart, d.id, b.ID, aux)
	}
	r, idx := d.hop(b.ID)
	d.setState(r, idx, stateP)
	links := b.Path.Links()
	var claimLink topology.LinkID
	var toward int8
	if fromSource {
		claimLink = links[0]
		toward = 1
	} else {
		claimLink = links[len(links)-1]
		toward = -1
	}
	if !d.claimHop(b, claimLink) {
		return
	}
	if fromSource {
		// Data transfer resumes immediately after sending the activation
		// message (schemes 2 and 3).
		d.net.noteSourceSwitch(conn.ID, b.ID)
	}
	d.send(b, wire.MsgActivation, toward)
}

// handleActivation advances an activation message through an intermediate
// node (or completes it at the far end).
func (d *daemon) handleActivation(c wireControl) {
	b, r, idx := d.at(rtchan.ChannelID(c.Channel))
	if b == nil {
		return
	}
	switch r.state(idx) {
	case stateU:
		return // a newer failure owns this channel; its report is en route
	case stateP:
		// Already activated from the other end (Scheme 3 meeting point).
		d.net.stats.ActivationsMet++
		if d.net.em.Enabled() {
			d.net.emitChan(trace.KindActivationMeet, d.id, b.ID, 0)
		}
		d.finalizeActivation(r)
		return
	case stateN:
		return
	case stateB:
	}
	d.setState(r, idx, stateP)
	links := b.Path.Links()
	if c.Toward > 0 {
		if idx == len(r.hops)-1 {
			d.finalizeActivation(r)
			if d.id == b.Path.Source() {
				// Degenerate single-hop case.
				d.net.noteSourceSwitch(b.Conn, b.ID)
			}
			return
		}
		if !d.claimHop(b, links[idx]) {
			return
		}
		d.forwardAlong(b, c)
		return
	}
	// Traveling toward the source.
	if idx == 0 {
		// The source switches on receiving the activation (Scheme 1: this
		// is when data transfer resumes).
		d.finalizeActivation(r)
		d.net.noteSourceSwitch(b.Conn, b.ID)
		return
	}
	if !d.claimHop(b, links[idx-1]) {
		return
	}
	d.forwardAlong(b, c)
}

// finalizeActivation promotes the backup in the resource plane exactly once.
func (d *daemon) finalizeActivation(r *chanSoft) {
	if r.promoted {
		return
	}
	b := r.ch
	conn := d.net.mgr.Connection(b.Conn)
	if conn == nil {
		return
	}
	if err := d.net.mgr.ActivateClaimed(b.Conn, b); err != nil {
		// Spare raced away between claim and promotion; treat as a
		// multiplexing failure.
		d.muxFailure(b)
		return
	}
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindActivationDone, d.id, b.ID, 0)
	}
	r.promoted = true
	d.net.scheduleReplenish(b.Conn)
}

// claimHop is an activation's one claim on link l for backup b. The
// resource plane decides it, preempting a lower-priority claim when the
// configuration allows (§4.3), and records a multiplexing failure; here the
// victim is reported failed and a failure ends the activation.
func (d *daemon) claimHop(b *rtchan.Channel, l topology.LinkID) bool {
	victim, ok := d.net.mgr.ClaimSpareFor(l, b.ID, b.Bandwidth(), d.net.cfg.AllowPreemption)
	if !ok {
		d.muxFailure(b)
		return false
	}
	if victim != 0 {
		d.net.stats.Preemptions++
		// The preempted channel is handled as if disabled by a component
		// failure: report from here toward both of its end nodes.
		if vch, _, _ := d.at(victim); vch != nil {
			d.reportBothWays(vch)
		}
	}
	return true
}

// reportBothWays marks ch unhealthy at this node and sends failure reports
// toward both end nodes (used for multiplexing failures and preemptions,
// which a single node detects).
func (d *daemon) reportBothWays(ch *rtchan.Channel) {
	// Every caller stands on ch's path — it claimed, or found a claim, on a
	// link of it here — but a reboot may have left the channel in N at this
	// node, or with no record at all.
	idx := ch.Path.IndexOfNode(d.id)
	if idx < 0 {
		return
	}
	r := d.net.softFor(ch)
	d.setState(r, idx, stateU)
	d.armRejoinTimer(r, idx)
	if idx > 0 {
		d.send(ch, wire.MsgFailureReport, -1)
	} else {
		d.endNodeFailureAction(r, idx)
	}
	if idx < len(r.hops)-1 {
		d.send(ch, wire.MsgFailureReport, 1)
	} else {
		d.endNodeFailureAction(r, idx)
	}
}

// muxFailure handles exhaustion of spare bandwidth during activation, which
// the resource plane has already recorded: the backup's claims are
// abandoned, it is unusable and the failure is reported to both end nodes
// so they can try the next serial (§4.1).
func (d *daemon) muxFailure(b *rtchan.Channel) {
	d.net.stats.MuxFailures++
	d.net.mgr.ReleaseClaimBatch(b.Path.Links(), b.ID)
	d.reportBothWays(b)
}

// --- Soft-state rejoin (§4.4, Figure 6) --------------------------------

// armRejoinTimer arms hop idx's rejoin timer unless one is already pending.
// Inside a dispatch round the arm is staged; endRound funds every staged arm
// with one shared batch timer (they all share RejoinTimeout, so staging order
// is firing order) — no per-channel closure, no per-channel heap entry.
func (d *daemon) armRejoinTimer(r *chanSoft, idx int) {
	h := &r.hops[idx]
	if h.arm != 0 {
		return
	}
	n := d.net
	if rd := &n.round; rd.active {
		rd.arms = append(rd.arms, rejoinEntry{r: r, idx: int32(idx)})
		h.arm = -int32(len(rd.arms))
		return
	}
	n.putArm(h, rejoinRef{t: n.rt.Schedule(n.cfg.RejoinTimeout, func() {
		n.dropArm(h)
		d.rejoinExpire(r, idx)
	})})
}

// stopRejoinTimer cancels hop idx's rejoin arm, staged or live, if any.
func (d *daemon) stopRejoinTimer(r *chanSoft, idx int) {
	switch h := &r.hops[idx]; {
	case h.arm < 0:
		d.net.round.arms[-h.arm-1].cancelled = true
		h.arm = 0
	case h.arm > 0:
		d.net.dropArm(h).stop()
	}
}

// rejoinExpire is the rejoin-timer expiry action: the channel's soft state
// never rejoined, so it is gone for good and its resources are reclaimed
// network-wide. Called from a batch entry under batched dispatch, or from a
// per-channel closure in the per-message baseline.
func (d *daemon) rejoinExpire(r *chanSoft, idx int) {
	if d.dead || r.hops[idx].state != stateU {
		return
	}
	ch := r.ch
	d.net.stats.RejoinExpiries++
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindRejoinExpire, d.id, ch.ID, 0)
	}
	d.setState(r, idx, stateN)
	// First expiry reclaims the channel's resources network-wide; the
	// call is idempotent across nodes.
	_ = d.net.mgr.TeardownChannel(ch.Conn, ch.ID)
	// Announce the teardown both ways. Nodes still in U reclaim on
	// their own timers, but a node that a straggling rejoin confirm
	// converted to B — stopping its timer — learns of the death only
	// from this closure.
	d.send(ch, wire.MsgChannelClosure, 1)
	d.send(ch, wire.MsgChannelClosure, -1)
	// The channel is gone for good; if replenishment is on, the source
	// restores the connection's backup count (§4.4). The activation-time
	// trigger cannot cover this case: a backup lost to an unrepaired
	// failure never activates anything, and until this teardown the dead
	// channel still counted toward the target.
	if idx == 0 {
		d.net.scheduleReplenish(ch.Conn)
	}
}

// scheduleRejoinProbe sends a rejoin-request along the failed channel after
// the probe delay, if the channel is still unhealthy. Inside a dispatch
// round the probe is staged — endRound funds the round's probes with one
// shared batch timer (batchtimer.go, they all share RejoinProbeDelay);
// otherwise a private timer is scheduled, its callback cached on the record
// outside per-message mode (it captures only the daemon and the id, so one
// build serves every fail/repair cycle of this source incarnation).
func (d *daemon) scheduleRejoinProbe(r *chanSoft) {
	chID := r.ch.ID
	if rd := &d.net.round; rd.active {
		rd.probes = append(rd.probes, probeEntry{d: d, chID: chID})
		return
	}
	fn := r.probe
	if fn == nil {
		fn = func() { d.probeFire(chID) }
		if !d.net.perMsg {
			r.probe = fn
		}
	}
	d.net.rt.Schedule(d.net.cfg.RejoinProbeDelay, fn)
}

// probeFire is the probe-timer expiry action: if the channel is still
// unhealthy here, send a rejoin-request toward the destination.
func (d *daemon) probeFire(chID rtchan.ChannelID) {
	if d.dead {
		return
	}
	c, r, idx := d.at(chID)
	if r.state(idx) != stateU || c == nil {
		return
	}
	d.net.stats.RejoinRequests++
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindRejoinRequest, d.id, chID, 0)
	}
	d.send(c, wire.MsgRejoinRequest, 1)
}

func (d *daemon) handleRejoinRequest(c wireControl) {
	ch, r, idx := d.at(rtchan.ChannelID(c.Channel))
	if ch == nil || r.state(idx) != stateU {
		return // expired (N) or never here: the request dies
	}
	if d.id == ch.Path.Destination() {
		// Channel path is whole again: confirm with a rejoin message.
		d.net.stats.Rejoins++
		if d.net.em.Enabled() {
			d.net.emitChan(trace.KindRejoin, d.id, ch.ID, 0)
		}
		d.setState(r, idx, stateB)
		d.stopRejoinTimer(r, idx)
		d.send(ch, wire.MsgRejoin, -1)
		return
	}
	d.forwardAlong(ch, c)
}

func (d *daemon) handleRejoin(c wireControl) {
	ch, r, idx := d.at(rtchan.ChannelID(c.Channel))
	if ch == nil {
		return
	}
	switch r.state(idx) {
	case stateU:
		d.setState(r, idx, stateB)
		d.stopRejoinTimer(r, idx)
		if d.id == ch.Path.Source() {
			d.completeRejoin(r, idx)
			return
		}
		d.forwardAlong(ch, c)
	case stateN:
		// Timer already expired here: undo the repair on both sides
		// (Figure 6) — the confirm has already converted the nodes behind
		// it to B, and the nodes ahead may still be waiting in U.
		d.net.stats.Closures++
		if d.net.em.Enabled() {
			d.net.emitChan(trace.KindClosure, d.id, ch.ID, 0)
		}
		d.send(ch, wire.MsgChannelClosure, 1)
		d.send(ch, wire.MsgChannelClosure, -1)
	default:
	}
}

// completeRejoin re-registers the repaired channel as a backup in the
// resource plane. If spare bandwidth can no longer accommodate it, the
// repair is abandoned with a closure.
func (d *daemon) completeRejoin(r *chanSoft, idx int) {
	ch := r.ch
	conn := d.net.mgr.Connection(ch.Conn)
	if conn == nil {
		d.abandonRejoin(r, idx)
		return
	}
	if err := d.net.mgr.RestoreAsBackup(ch.Conn, ch.ID, conn.ReplacementDegree()); err != nil {
		d.abandonRejoin(r, idx)
		return
	}
	r.hops[idx].failed = false
	// The channel is a backup again: a future activation of it is a new
	// episode, so the promote-once guard must rearm. (Without this, a
	// channel that has been promoted once can never be promoted again —
	// visible under repeated fail/repair cycles.)
	if s := d.net.cfg.Sabotage; s == nil || !s.SkipPromoteRearm {
		r.promoted = false
	}
}

func (d *daemon) abandonRejoin(r *chanSoft, idx int) {
	ch := r.ch
	d.net.stats.Closures++
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindClosure, d.id, ch.ID, 0)
	}
	d.setState(r, idx, stateN)
	d.send(ch, wire.MsgChannelClosure, 1)
	_ = d.net.mgr.TeardownChannel(ch.Conn, ch.ID)
}

// handleClosure drops this hop's state and passes the closure on along the
// record's route, which outlives the resource plane's registry entry.
func (d *daemon) handleClosure(c wireControl) {
	r, idx := d.hop(rtchan.ChannelID(c.Channel))
	if r.state(idx) == stateN {
		return
	}
	ch := r.ch
	d.stopRejoinTimer(r, idx)
	d.setState(r, idx, stateN)
	d.forwardAlong(ch, c)
}
