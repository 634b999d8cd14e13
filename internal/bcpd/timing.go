package bcpd

import (
	"slices"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/wire"
)

// The timing model of a Config — what §5 derives from the protocol
// parameters — is computed here and nowhere else (owner_test.go's "owner"
// rule fails on a use of RCC.RMax outside internal/bcpd, internal/rcc and
// bench/); a recovery's Γ bound is Network.gammaBound.

// HopBound is D^RCC_max on links of the given capacity: the worst-case
// one-hop control delay of the RCC riding the priority scheduler's control
// class = eligibility wait (1/R_max) + residual transmission of one
// in-flight data packet + the frame's own transmission + propagation.
func (c Config) HopBound(capacityMbps float64) sim.Duration {
	bps := capacityMbps * 1e6
	residual := sim.Duration(float64(c.DataMsgSize*8) / bps * float64(time.Second))
	frame := sim.Duration(float64(c.RCC.SMax*8) / bps * float64(time.Second))
	return c.frameInterval() + residual + frame + c.PropDelay
}

// frameInterval is 1/R^RCC_max: an rcc.Endpoint sends each frame, a pure
// ACK included, at least this long after its last one, and no later while
// controls wait.
func (c Config) frameInterval() sim.Duration {
	return sim.Duration(float64(time.Second) / c.RCC.RMax)
}

// dmax is D^RCC_max on g: HopBound on its slowest link.
func (c Config) dmax(g *topology.Graph) (d sim.Duration) {
	for _, l := range g.Links() {
		d = max(d, c.HopBound(l.Capacity))
	}
	return d
}

// heartbeatMiss is how many consecutive heartbeat intervals a link may miss
// before its downstream node declares it failed.
const heartbeatMiss = 3

// heartbeatDeadline is how long a link may stay silent before its
// downstream node declares it failed.
func (c Config) heartbeatDeadline() sim.Duration {
	return sim.Duration(heartbeatMiss+1) * c.HeartbeatInterval
}

// DetectionWindow is the longest a crash goes unreported by the failed
// component's neighbors: DetectionLatency under oracle detection, the
// heartbeat deadline plus the one check tick it is sampled on otherwise.
func (c Config) DetectionWindow() sim.Duration {
	if c.HeartbeatInterval > 0 {
		return c.heartbeatDeadline() + c.HeartbeatInterval
	}
	return c.DetectionLatency
}

// CountGamma makes each later crash count the controls that can cross each
// link from the plan at the crash (countControls), and returns the bound
// the Γ rule reads (conformance.Params.Gamma). NewChecked calls it; a
// network no one calls it on counts nothing.
func (n *Network) CountGamma() func(trace.Recovery) sim.Duration {
	if n.gamma == nil {
		n.gamma = map[rtchan.ConnID]sim.Duration{}
	}
	return n.gammaBound
}

// gammaBound is recovery r's Γ bound: the detection window, §5.3's
// (K−1)·D^RCC_max + 2(b−1)(K−1)·D^RCC_max for r's K and b, and the frame
// intervals counted on r's legs at its crash, which are none where §5.2
// holds: no link then carries more controls than a frame holds.
func (n *Network) gammaBound(r trace.Recovery) sim.Duration {
	k, b := sim.Duration(r.Hops-1), sim.Duration(max(r.Backups-1, 0))
	dmax := n.cfg.dmax(n.mgr.Graph())
	return n.cfg.DetectionWindow() + k*dmax + 2*b*k*dmax + n.gamma[r.Conn]
}

// countGamma recounts the bound at a crash, if CountGamma turned it on.
func (n *Network) countGamma() {
	if n.gamma != nil {
		_, n.gamma = n.countControls()
	}
}

// cut returns where the failed components, dead nodes and links down
// between live ones, cut path p: reports cross the reverses of p's links
// before up toward the source, and p's links from down on toward the
// destination. up is the last failed component's upstream neighbour and
// down the first one's downstream neighbour; between two failed components
// this counts more than crosses, never less.
func (n *Network) cut(p topology.Path) (up, down int) {
	links, nodes := p.Links(), p.Nodes()
	up, down = 0, len(links)
	for i, v := range nodes {
		if n.nodes[v].dead {
			up, down = max(up, i-1), min(down, i+1)
		}
		if i < len(links) && n.links[links[i]].down && !n.nodes[v].dead && !n.nodes[nodes[i+1]].dead {
			up, down = max(up, i), min(down, i+1)
		}
	}
	return up, down
}

// countControls counts n_l(f), the controls that can cross each link l
// under f, the components now failed: the failure reports of every channel
// f disables, both ways from its cut, and one activation each way on every
// link of each backup of a connection whose primary f disables (under
// Scheme 3 both end nodes activate; a multiplexing failure's report goes
// only where the activation it stopped would have). An RCC sends c =
// wire.MaxControlsForBudget(S^RCC_max) controls to a frame, a frame an
// interval while controls wait, so link l adds ⌈n_l/c⌉ − 1 intervals to
// each leg that crosses it: a disrupted connection's report leg and, if it
// has a second backup to try, its retrial legs, its backups both ways.
func (n *Network) countControls() ([]int32, map[rtchan.ConnID]sim.Duration) {
	g, net := n.mgr.Graph(), n.mgr.Network()
	count := make([]int32, g.NumLinks())
	var hit []rtchan.ChannelID
	for v, d := range n.nodes {
		if d.dead {
			hit = net.AppendChannelsAtNode(hit, topology.NodeID(v))
		}
	}
	for l, lr := range n.links {
		if lr.down {
			for _, ch := range net.ChannelsOnLink(topology.LinkID(l)) {
				hit = append(hit, ch.ID)
			}
		}
	}
	slices.Sort(hit)
	bump := func(l topology.LinkID) {
		if l != topology.NoLink {
			count[l]++
		}
	}
	var disrupted []*core.DConnection
	for _, id := range slices.Compact(hit) {
		ch := net.Channel(id)
		up, down := n.cut(ch.Path)
		for _, l := range ch.Path.Links()[:up] {
			bump(g.Reverse(l))
		}
		for _, l := range ch.Path.Links()[down:] {
			bump(l)
		}
		if c := n.mgr.Connection(ch.Conn); c != nil && c.Primary != nil && c.Primary.ID == id {
			disrupted = append(disrupted, c)
			for _, b := range c.Backups {
				for _, l := range b.Path.Links() {
					bump(l)
					bump(g.Reverse(l))
				}
			}
		}
	}

	perFrame := int32(wire.MaxControlsForBudget(n.cfg.RCC.SMax))
	wait := func(l topology.LinkID) sim.Duration {
		if l == topology.NoLink {
			return 0
		}
		return sim.Duration(max((count[l]+perFrame-1)/perFrame-1, 0)) * n.cfg.frameInterval()
	}
	extra := make(map[rtchan.ConnID]sim.Duration, len(disrupted))
	for _, c := range disrupted {
		var e sim.Duration
		up, _ := n.cut(c.Primary.Path)
		for _, l := range c.Primary.Path.Links()[:up] {
			e += wait(g.Reverse(l))
		}
		if len(c.Backups) > 1 {
			for _, b := range c.Backups {
				for _, l := range b.Path.Links() {
					e += wait(l) + wait(g.Reverse(l))
				}
			}
		}
		extra[c.ID] = e
	}
	return count, extra
}
