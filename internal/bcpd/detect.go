package bcpd

import (
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/wire"
)

// Heartbeat-based failure detection. The paper assumes "failed components
// are detected by their neighbor nodes" and defers mechanisms to [HAN97a];
// this file supplies one: every daemon emits a small heartbeat packet on
// each outgoing link at a fixed interval, and the downstream neighbor
// declares the link failed after heartbeatMiss consecutive silent intervals.
// The downstream detector then notifies the upstream node over the
// reverse-direction link (still healthy under a simplex-link crash), so both
// neighbors originate the failure reports their side of the channel-
// switching scheme requires. A crashed node stops emitting on every
// incident link, so its neighbors detect it the same way.
//
// Enable by setting Config.HeartbeatInterval > 0; FailLink/FailNode then
// only crash the component, and detection happens organically.

// heartbeatPayload marks a heartbeat packet on the wire.
type heartbeatPayload struct {
	link topology.LinkID
}

// heartbeatSize is the on-wire size of a heartbeat packet.
const heartbeatSize = 32

// startHeartbeats launches emission and monitoring loops for every link.
func (n *Network) startHeartbeats() {
	if n.cfg.HeartbeatInterval <= 0 {
		return
	}
	for _, l := range n.mgr.Graph().Links() {
		n.links[l.ID].heartbeatLastSeen = n.rt.Now()
		n.emitHeartbeat(l.ID)
		n.monitorHeartbeats(l.ID)
	}
}

// emitHeartbeat starts link l's heartbeat loop; the rescheduling closure is
// built once, so each beat costs only the send. A dead daemon stops
// emitting — that is the detection signal.
func (n *Network) emitHeartbeat(l topology.LinkID) {
	lk := n.mgr.Graph().Link(l)
	var tick func()
	tick = func() {
		if !n.nodes[lk.From].dead {
			n.tr.SendHeartbeat(l)
		}
		n.rt.Schedule(n.cfg.HeartbeatInterval, tick)
	}
	tick()
}

// monitorHeartbeats starts the liveness check loop for link l at its
// receiving node; like the emitter, the check closure is built once.
func (n *Network) monitorHeartbeats(l topology.LinkID) {
	lk := n.mgr.Graph().Link(l)
	lr := n.links[l]
	deadline := n.cfg.heartbeatDeadline()
	var check func()
	check = func() {
		to := n.nodes[lk.To]
		if !to.dead && !lr.declaredDown && n.rt.Now().Sub(lr.heartbeatLastSeen) > deadline {
			n.declareLinkFailure(l)
		}
		n.rt.Schedule(n.cfg.HeartbeatInterval, check)
	}
	n.rt.Schedule(n.cfg.HeartbeatInterval, check)
}

// declareLinkFailure runs at link l's downstream node when heartbeats stop:
// it originates the downstream failure reports and notifies the upstream
// neighbor over the reverse link.
func (n *Network) declareLinkFailure(l topology.LinkID) {
	n.links[l].declaredDown = true
	n.stats.Detections++
	lk := n.mgr.Graph().Link(l)
	if n.em.Enabled() {
		n.emitComponent(trace.KindDetect, lk.To, l)
	}
	scheme := n.cfg.Scheme
	opened := n.beginRound()
	// The walk is over the index itself: a failure report marks channels U
	// and starts activations, but only a rejoin expiry or abandonment tears
	// one down, and neither runs inside this call.
	for _, ch := range n.mgr.Network().ChannelsOnLink(l) {
		if scheme == Scheme1 || scheme == Scheme3 {
			n.nodes[lk.To].originateFailureReport(ch.ID, +1)
		}
	}
	// Tell the upstream side; under a single simplex-link crash the reverse
	// direction still works. (If it is down too — node failure — the
	// reverse link's own monitor handles the other side.)
	if rev := n.mgr.Graph().Reverse(l); rev != topology.NoLink {
		n.submitControl(rev, wireControl{
			Type:    wire.MsgLinkFailure,
			Channel: int64(l),
			Origin:  int32(lk.To),
			Toward:  1,
		})
	}
	if opened {
		n.endRound()
	}
}

// handleLinkFailureNotify runs at the upstream node of a failed link when
// the downstream detector's notification arrives.
func (d *daemon) handleLinkFailureNotify(c wireControl) {
	l := topology.LinkID(c.Channel)
	n := d.net
	if l < 0 || int(l) >= len(n.links) {
		return
	}
	lk := n.mgr.Graph().Link(l)
	if lk.From != d.id {
		return // misrouted
	}
	scheme := n.cfg.Scheme
	for _, ch := range n.mgr.Network().ChannelsOnLink(l) {
		if scheme == Scheme2 || scheme == Scheme3 {
			d.originateFailureReport(ch.ID, -1)
		}
	}
}
