package bcpd

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// source emits a connection's data messages at a fixed rate along the
// channel the source node currently considers the primary.
type source struct {
	net     *Network
	conn    rtchan.ConnID
	rate    float64 // messages per second
	active  rtchan.ChannelID
	seq     uint64
	stopped bool
	due     sim.Time // when the emission being made was due
	emitFn  func()   // emitLoop, bound once so rescheduling does not allocate

	// switchedAt records every primary switch at the source — the moment
	// data transfer resumes after a failure (the paper's recovery instant
	// for schemes 2 and 3; for scheme 1, when the activation arrives).
	switchedAt []sim.Time
}

// sink records data-message arrivals at the destination.
type sink struct {
	arrivals  []sim.Time
	received  uint64
	lastSeq   uint64
	reordered uint64
	resumeOn  rtchan.ChannelID // the source's last switch, until data arrives on it
}

// StartTraffic attaches a data source (rate messages/second) and sink to an
// established connection and begins emission immediately.
func (n *Network) StartTraffic(connID rtchan.ConnID, rate float64) error {
	conn := n.mgr.Connection(connID)
	if conn == nil {
		return fmt.Errorf("bcpd: unknown connection %d", connID)
	}
	if conn.Primary == nil {
		return fmt.Errorf("bcpd: connection %d has no primary", connID)
	}
	if rate <= 0 {
		return fmt.Errorf("bcpd: non-positive rate %g", rate)
	}
	if _, dup := n.sources[connID]; dup {
		return fmt.Errorf("bcpd: traffic already started on %d", connID)
	}
	s := &source{net: n, conn: connID, rate: rate, active: conn.Primary.ID, due: n.rt.Now()}
	s.emitFn = s.emitLoop
	n.sources[connID] = s
	n.sinks[connID] = &sink{}
	s.emitLoop()
	return nil
}

// StopTraffic halts a connection's source.
func (n *Network) StopTraffic(connID rtchan.ConnID) {
	if s, ok := n.sources[connID]; ok {
		s.stopped = true
	}
}

func (s *source) emitLoop() {
	if s.stopped {
		return
	}
	s.emit()
	// The period runs from when this emission was due, not from when it ran:
	// on the wall clock a timer fires late, and counting from now would turn
	// the lateness into a lower rate. A source that has fallen a whole period
	// behind skips ahead; it does not burst. On the simulator now is due.
	interval := sim.Duration(float64(time.Second) / s.rate)
	s.due = max(s.due.Add(interval), s.net.rt.Now())
	s.net.rt.At(s.due, s.emitFn)
}

func (s *source) emit() {
	n := s.net
	ch := n.mgr.Network().Channel(s.active)
	if ch == nil {
		return // channel torn down and nothing activated yet
	}
	src := n.nodes[ch.Path.Source()]
	if src.dead {
		s.stopped = true
		return
	}
	s.seq++
	n.stats.DataSent++
	pkt := n.getDataBox()
	*pkt = dataPayload{conn: s.conn, ch: s.active, seq: s.seq}
	// The source forwards onto the first link of the active channel.
	l := ch.Path.Links()[0]
	n.tr.SendData(l, pkt)
}

// handleData forwards (or sinks) a data message arriving at this node. The
// payload box is recycled on every terminal path; forwarding passes it on.
func (d *daemon) handleData(p *dataPayload) {
	n := d.net
	if d.dead {
		n.stats.DataDropped++
		n.putDataBox(p)
		return
	}
	ch, r, idx := d.at(p.ch)
	if ch == nil || r.state(idx) != stateP {
		// Data on a channel this node has not activated (or that failed)
		// is discarded with no harm (§4.2 footnote).
		n.stats.DataDropped++
		n.putDataBox(p)
		return
	}
	if d.id == ch.Path.Destination() {
		sk := n.sinks[p.conn]
		if sk == nil {
			n.stats.DataDropped++
			n.putDataBox(p)
			return
		}
		n.stats.DataDelivered++
		sk.received++
		sk.arrivals = append(sk.arrivals, n.rt.Now())
		if p.seq < sk.lastSeq {
			sk.reordered++
		}
		sk.lastSeq = p.seq
		if p.ch == sk.resumeOn {
			sk.resumeOn = 0
			if n.em.Enabled() {
				n.emitChan(trace.KindDataResume, d.id, p.ch, 0)
			}
		}
		n.putDataBox(p)
		return
	}
	n.tr.SendData(ch.Path.Links()[idx], p)
}

// noteSourceSwitch redirects the connection's source to a newly activated
// channel; data transfer resumes on the next emission.
func (n *Network) noteSourceSwitch(connID rtchan.ConnID, ch rtchan.ChannelID) {
	s := n.sources[connID]
	if s == nil || s.active == ch {
		return
	}
	s.active = ch
	s.switchedAt = append(s.switchedAt, n.rt.Now())
	n.sinks[connID].resumeOn = ch
	if n.em.Enabled() {
		node := topology.NoNode
		if c := n.mgr.Network().Channel(ch); c != nil {
			node = c.Path.Source()
		}
		n.em.Emit(trace.Event{
			At:      n.rt.Now(),
			Kind:    trace.KindSourceSwitch,
			Node:    node,
			Link:    topology.NoLink,
			Conn:    connID,
			Channel: ch,
		})
	}
}

// SourceSwitches returns the times the connection's source switched
// channels (empty if traffic was never started or no failure occurred).
func (n *Network) SourceSwitches(connID rtchan.ConnID) []sim.Time {
	if s := n.sources[connID]; s != nil {
		return s.switchedAt
	}
	return nil
}

// SinkArrivals returns the data arrival times recorded at the destination.
func (n *Network) SinkArrivals(connID rtchan.ConnID) []sim.Time {
	if sk := n.sinks[connID]; sk != nil {
		return sk.arrivals
	}
	return nil
}

// MaxArrivalGap returns the largest gap between consecutive data arrivals
// over the whole run — the destination-observed service disruption when a
// single failure hits the connection mid-run.
func (n *Network) MaxArrivalGap(connID rtchan.ConnID) sim.Duration {
	arr := n.SinkArrivals(connID)
	var max sim.Duration
	for i := 1; i < len(arr); i++ {
		if g := arr[i].Sub(arr[i-1]); g > max {
			max = g
		}
	}
	return max
}
