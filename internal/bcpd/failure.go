package bcpd

import (
	"github.com/rtcl/bcp/internal/rcc"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// FailLink crashes one simplex link: everything in flight is lost, and
// after the detection latency the two incident nodes originate failure
// reports for every channel routed over the link, per the configured scheme
// (Figure 5).
func (n *Network) FailLink(l topology.LinkID) {
	if n.links[l].down {
		return
	}
	n.setLinkDown(l, true)
	if n.em.Enabled() {
		n.emitComponent(trace.KindLinkDown, topology.NoNode, l)
	}
	if n.cfg.HeartbeatInterval > 0 {
		return // detection happens via missing heartbeats
	}
	lk := n.mgr.Graph().Link(l)
	affected := n.snapshotIDs(n.mgr.Network().ChannelsOnLink(l))
	n.rt.Schedule(n.cfg.DetectionLatency, func() {
		// One dispatch round for the whole fan-out: every report this
		// detection originates is staged and flushed per neighbor link.
		opened := n.beginRound()
		for _, chID := range affected {
			n.originateReports(chID, lk.From, lk.To)
		}
		if opened {
			n.endRound()
		}
		n.putChanList(affected)
	})
}

// RepairLink brings a simplex link back into service. Channels through it
// stay unusable until a rejoin repairs them.
func (n *Network) RepairLink(l topology.LinkID) {
	if !n.links[l].down {
		return
	}
	n.setLinkDown(l, false)
	if n.em.Enabled() {
		n.emitComponent(trace.KindLinkUp, topology.NoNode, l)
	}
	if n.cfg.HeartbeatInterval > 0 {
		lr := n.links[l]
		lr.heartbeatLastSeen, lr.declaredDown = n.rt.Now(), false
	}
}

// setLinkDown records link l's state here and in the transport. It is the
// only writer of linkRuntime.down, which is what keeps linksDown exact.
func (n *Network) setLinkDown(l topology.LinkID, down bool) {
	if lr := n.links[l]; lr.down != down {
		lr.down = down
		if down {
			n.linksDown++
		} else {
			n.linksDown--
		}
	}
	n.tr.SetLinkDown(l, down)
}

// LinkDown reports whether link l is failed.
func (n *Network) LinkDown(l topology.LinkID) bool { return n.links[l].down }

// FailNode crashes a node: its daemon stops, all incident links go down,
// and after the detection latency every neighbor on an affected channel's
// path originates the appropriate failure reports.
func (n *Network) FailNode(v topology.NodeID) {
	d := n.nodes[v]
	if d.dead {
		return
	}
	d.dead = true
	if n.em.Enabled() {
		n.emitComponent(trace.KindNodeDown, v, topology.NoLink)
	}
	g := n.mgr.Graph()
	downIncident := func(l topology.LinkID) {
		if !n.links[l].down && n.em.Enabled() {
			n.emitComponent(trace.KindLinkDown, topology.NoNode, l)
		}
		n.setLinkDown(l, true)
	}
	for _, l := range g.Out(v) {
		downIncident(l)
	}
	for _, l := range g.In(v) {
		downIncident(l)
	}
	if n.cfg.HeartbeatInterval > 0 {
		return // neighbors notice the silence on every incident link
	}
	affected := n.mgr.Network().AppendChannelsAtNode(pop(&n.chanListFree), v)
	n.rt.Schedule(n.cfg.DetectionLatency, func() {
		defer n.putChanList(affected)
		// A node failure is the widest fan-out in the protocol: every
		// channel through the node reports from both surviving neighbors.
		// One round batches all of it.
		opened := n.beginRound()
		defer func() {
			if opened {
				n.endRound()
			}
		}()
		for _, chID := range affected {
			ch := n.mgr.Network().Channel(chID)
			if ch == nil {
				continue
			}
			idx := ch.Path.IndexOfNode(v)
			if idx < 0 {
				continue
			}
			nodes := ch.Path.Nodes()
			var up, down topology.NodeID = topology.NoNode, topology.NoNode
			if idx > 0 {
				up = nodes[idx-1]
			}
			if idx < len(nodes)-1 {
				down = nodes[idx+1]
			}
			n.originateReports(chID, up, down)
		}
	})
}

// RepairNode restores a crashed node and its incident links. The daemon
// returns with empty channel state (a rebooted node holds no soft state).
func (n *Network) RepairNode(v topology.NodeID) {
	d := n.nodes[v]
	if !d.dead {
		return
	}
	// A rebooted daemon holds no soft state: every hop it held returns to N
	// (explicit transitions in the trace, in ascending channel order — the
	// table's), its pending arms die with it, and timers of the old
	// incarnation that still fire find the old object dead. Records this
	// empties are freed after the walk, which must not delete.
	var emptied []*chanSoft
	n.soft.tab.Each(func(_ rtchan.ChannelID, r *chanSoft) {
		if i := r.ch.Path.IndexOfNode(v); r.state(i) != stateN {
			d.stopRejoinTimer(r, i)
			if d.setHop(r, i, stateN) {
				emptied = append(emptied, r)
			}
		}
	})
	for _, r := range emptied {
		n.freeSoft(r)
	}
	if n.em.Enabled() {
		n.emitComponent(trace.KindNodeUp, v, topology.NoLink)
	}
	n.nodes[v] = &daemon{net: n, id: v}
	// The reboot lost the node's RCC sessions, so each pair of endpoints on
	// its links starts a new one: neither side retransmits, or acts on, a
	// frame of the dead incarnation. A link without a reverse carries no
	// session (deliverFrame).
	g := n.mgr.Graph()
	for _, l := range g.Out(v) {
		if rev := g.Reverse(l); rev != topology.NoLink {
			rcc.Restart(n.links[l].rccE, n.links[rev].rccE)
		}
	}
	for _, l := range g.Out(v) {
		n.RepairLink(l)
	}
	for _, l := range g.In(v) {
		n.RepairLink(l)
	}
}

// originateReports makes the upstream neighbor report toward the source and
// the downstream neighbor toward the destination, according to the scheme:
// Scheme 1 reports downstream only, Scheme 2 upstream only, Scheme 3 both.
func (n *Network) originateReports(chID rtchan.ChannelID, up, down topology.NodeID) {
	scheme := n.cfg.Scheme
	if up != topology.NoNode && (scheme == Scheme2 || scheme == Scheme3) {
		n.nodes[up].originateFailureReport(chID, -1)
	}
	if down != topology.NoNode && (scheme == Scheme1 || scheme == Scheme3) {
		n.nodes[down].originateFailureReport(chID, +1)
	}
}
