package bcpd

import (
	"fmt"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Sabotage deliberately re-introduces a fixed historical bug so harnesses
// can prove they would have caught it (chaos model-check self-tests). Nil —
// the only production value — changes nothing.
type Sabotage struct {
	// SkipPromoteRearm disables the promote-once guard rearm on rejoin:
	// a channel that has been promoted once can then never be promoted
	// again, the exact bug storm testing found in the recovery engine.
	SkipPromoteRearm bool
}

// CheckQuiescence audits the network at a fully-healed quiet point — every
// component repaired and the event queue drained — and returns one message
// per violated steady-state invariant (nil when clean, sorted-deterministic
// otherwise):
//
//   - pooled frame buffers and data boxes all returned (outstanding equals
//     the transport's in-transit census, and both are zero);
//   - RCC endpoints drained on every healthy link (nothing queued, nothing
//     awaiting acknowledgment);
//   - no daemon dead, no channel state stuck at U, no soft state for
//     channels the resource plane has released;
//   - daemon state agrees with the resource plane along every registered
//     channel's path (P for the connection's primary, B for backups), and
//     every surviving primary-role channel is its connection's primary;
//   - no spare-bandwidth claims left behind, and the resource plane's own
//     audit (core.Manager.CheckMuxInvariants: spare sizing, Π matrices, the
//     signature slab, the claim ledger) is clean.
//
// Anything still in flight — packets, live rejoin timers, pending repairs —
// legitimately fails these rules; callers quiesce first (StopTraffic, repair
// everything, drain the engine).
func (n *Network) CheckQuiescence() []string {
	var v []string

	framesOut, dataOut := n.PoolOutstanding()
	if tr, ok := n.tr.(interface{ InTransit() (int, int) }); ok {
		framesIn, dataIn := tr.InTransit()
		if framesOut != framesIn || dataOut != dataIn {
			v = append(v, fmt.Sprintf("pool imbalance: outstanding %d frames/%d data vs in-transit %d/%d",
				framesOut, dataOut, framesIn, dataIn))
		}
	}
	if framesOut != 0 || dataOut != 0 {
		v = append(v, fmt.Sprintf("pooled payloads leaked: %d frames, %d data boxes outstanding", framesOut, dataOut))
	}

	down := 0
	for _, lr := range n.links {
		if lr.down {
			down++
			v = append(v, fmt.Sprintf("link %d still down", lr.id))
			continue
		}
		if b := lr.rccE.Backlog(); b > 0 {
			v = append(v, fmt.Sprintf("link %d: rcc backlog %d (unacked or unsent controls)", lr.id, b))
		}
	}
	if down != n.linksDown {
		v = append(v, fmt.Sprintf("down-link count %d, but %d links are down", n.linksDown, down))
	}

	// One walk of the table, ascending by channel, files every live hop's
	// findings under its node; they are reported node by node.
	found := make([][]string, len(n.nodes))
	armed := make([]int, len(n.nodes))
	n.soft.tab.Each(func(ch rtchan.ChannelID, r *chanSoft) {
		c := n.mgr.Network().Channel(ch)
		for i, node := range r.ch.Path.Nodes() {
			s := r.state(i)
			if s == stateN {
				continue
			}
			if r.hops[i].arm != 0 {
				armed[node]++
			}
			switch {
			case s == stateU:
				found[node] = append(found[node], fmt.Sprintf("node %d: channel %d stuck in state U", node, ch))
			case c == nil:
				found[node] = append(found[node], fmt.Sprintf("node %d: state %s for released channel %d", node, s, ch))
			case (s == stateP) != (c.Role == rtchan.RolePrimary):
				found[node] = append(found[node], fmt.Sprintf("node %d: channel %d in state %s, resource plane says %s",
					node, ch, s, c.Role))
			}
		}
	})
	for _, d := range n.nodes {
		if d.dead {
			v = append(v, fmt.Sprintf("node %d still dead", d.id))
			continue
		}
		v = append(v, found[d.id]...)
		if armed[d.id] > 0 {
			v = append(v, fmt.Sprintf("node %d: %d rejoin timers still armed", d.id, armed[d.id]))
		}
	}
	v = n.checkSoft(v)

	for _, conn := range n.mgr.Connections() {
		if conn.Primary != nil {
			if conn.Primary.Role != rtchan.RolePrimary {
				v = append(v, fmt.Sprintf("conn %d: primary channel %d has role %s",
					conn.ID, conn.Primary.ID, conn.Primary.Role))
			}
			for _, node := range conn.Primary.Path.Nodes() {
				if s := n.nodes[node].State(conn.Primary.ID); s != stateP {
					v = append(v, fmt.Sprintf("conn %d: primary %d not P at node %d (state %s)",
						conn.ID, conn.Primary.ID, node, s))
				}
			}
		}
		for _, b := range conn.Backups {
			if b.Role == rtchan.RolePrimary && (conn.Primary == nil || conn.Primary.ID != b.ID) {
				v = append(v, fmt.Sprintf("conn %d: channel %d keeps primary role but is listed as backup",
					conn.ID, b.ID))
			}
			for _, node := range b.Path.Nodes() {
				if s := n.nodes[node].State(b.ID); s != stateB {
					v = append(v, fmt.Sprintf("conn %d: backup %d not B at node %d (state %s)",
						conn.ID, b.ID, node, s))
				}
			}
		}
	}

	if claims := n.mgr.OutstandingClaims(); claims > 0 {
		v = append(v, fmt.Sprintf("%d spare-bandwidth claims leaked", claims))
	}
	if err := n.mgr.CheckMuxInvariants(); err != nil {
		v = append(v, err.Error())
	}
	return n.checkRoundQuiescence(v)
}

// ConnectionEstablished reports whether the connection exists with a healthy
// primary: registered, carrying a primary whose every path node is alive,
// agrees it is in state P, and whose every path link is up. This is the
// liveness endpoint chaos episodes assert after a survivable fault schedule.
func (n *Network) ConnectionEstablished(connID rtchan.ConnID) bool {
	conn := n.mgr.Connection(connID)
	if conn == nil || conn.Primary == nil {
		return false
	}
	for _, node := range conn.Primary.Path.Nodes() {
		d := n.nodes[node]
		if d.dead || d.State(conn.Primary.ID) != stateP {
			return false
		}
	}
	for _, l := range conn.Primary.Path.Links() {
		if n.links[l].down {
			return false
		}
	}
	return true
}

// NodeDown reports whether node v's daemon is currently crashed.
func (n *Network) NodeDown(v topology.NodeID) bool {
	return n.nodes[v].dead
}
