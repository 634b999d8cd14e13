package bcpd

import (
	"fmt"

	"github.com/rtcl/bcp/internal/sched"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
)

// SimTransport is the deterministic in-process transport: one sched.Link
// transmitter per simplex link, serializing packets at link capacity and
// delivering them after the propagation delay, with control frames carried
// zero-copy — the marshaled buffer rides the scheduler inside a recycled
// pointer box and returns to the network's pool after delivery or drop.
// It runs on the simulator only (sched.Link keys its events on sim.Engine);
// live runs use PipeTransport.
type SimTransport struct {
	n     *Network
	links []*sched.Link
	hb    []any // heartbeat payloads, boxed once per link

	// boxFree recycles the frame boxes.
	boxFree []*rccFrame
}

// NewSimTransport creates an unattached sim transport; NewOn attaches it.
func NewSimTransport() *SimTransport { return &SimTransport{} }

// Attach builds the per-link transmitters against the network's simulator
// and graph, and panics on any other runtime. One drop handler is shared by
// every link: the payload type alone says what to reclaim.
func (t *SimTransport) Attach(n *Network) {
	eng, ok := n.rt.(*sim.Engine)
	if !ok {
		panic(fmt.Sprintf("bcpd: SimTransport needs the simulator (*sim.Engine), not %T; live runs use PipeTransport", n.rt))
	}
	t.n = n
	g := n.mgr.Graph()
	t.links = make([]*sched.Link, g.NumLinks())
	drop := t.reclaim
	for _, l := range g.Links() {
		lID := l.ID
		sl := sched.NewLink(eng, l.Capacity, n.cfg.PropDelay, n.cfg.MaxQueue, func(p sched.Packet) {
			t.deliver(lID, p)
		})
		sl.SetDropHandler(drop)
		t.links[lID] = sl
	}
	if n.cfg.HeartbeatInterval > 0 {
		t.hb = make([]any, g.NumLinks())
		for i := range t.hb {
			t.hb[i] = heartbeatPayload{link: topology.LinkID(i)}
		}
	}
}

// getBox returns a recycled frame box.
func (t *SimTransport) getBox() *rccFrame {
	if b := pop(&t.boxFree); b != nil {
		return b
	}
	return &rccFrame{}
}

// SendFrame boxes the frame buffer and hands it to link l's transmitter.
func (t *SimTransport) SendFrame(l topology.LinkID, frame []byte) {
	box := t.getBox()
	box.data = frame
	t.links[l].Enqueue(sched.Packet{Class: sched.ClassControl, Size: len(frame), Payload: box})
}

// SendData hands a data box to link l's transmitter.
func (t *SimTransport) SendData(l topology.LinkID, p *dataPayload) {
	t.links[l].Enqueue(sched.Packet{Class: sched.ClassRealTime, Size: t.n.cfg.DataMsgSize, Payload: p})
}

// SendHeartbeat enqueues link l's prebuilt heartbeat payload.
func (t *SimTransport) SendHeartbeat(l topology.LinkID) {
	t.links[l].Enqueue(sched.Packet{Class: sched.ClassControl, Size: heartbeatSize, Payload: t.hb[l]})
}

// SetLinkDown fails or repairs the transmitter; going down clears its queues
// (reclaiming every pooled payload through the drop handler).
func (t *SimTransport) SetLinkDown(l topology.LinkID, down bool) { t.links[l].SetDown(down) }

// Close is a no-op: the sim transport owns no goroutines.
func (t *SimTransport) Close() {}

// deliver dispatches a packet arriving at the far end of link l.
func (t *SimTransport) deliver(l topology.LinkID, p sched.Packet) {
	switch pl := p.Payload.(type) {
	case *rccFrame:
		data := pl.data
		pl.data = nil
		t.boxFree = append(t.boxFree, pl)
		t.n.deliverFrame(l, data)
	case *dataPayload:
		t.n.deliverData(l, pl)
	case heartbeatPayload:
		t.n.deliverHeartbeat(pl.link)
	default:
		panic(fmt.Sprintf("bcpd: unknown payload %T", p.Payload))
	}
}

// reclaim observes every packet a link drops and returns its pooled payload:
// frame buffers and boxes to their free lists, data boxes to the network.
// Heartbeats carry nothing pooled.
func (t *SimTransport) reclaim(p sched.Packet) {
	switch pl := p.Payload.(type) {
	case *rccFrame:
		data := pl.data
		pl.data = nil
		t.boxFree = append(t.boxFree, pl)
		t.n.reclaimFrame(data)
	case *dataPayload:
		t.n.reclaimData(pl)
	}
}

// InTransit counts the pooled payloads physically inside the transport —
// queued, serializing, or propagating — by walking the transmitters. It is
// deliberately a census rather than a counter kept alongside the reclaim
// path: together with Network.PoolOutstanding it forms the pool-balance
// invariant (at any event boundary, outstanding == in-transit), and a
// payload whose drop failed to reclaim it shows up as outstanding without
// being anywhere in the transport.
func (t *SimTransport) InTransit() (frames, data int) {
	for _, sl := range t.links {
		sl.Each(func(p sched.Packet) {
			switch p.Payload.(type) {
			case *rccFrame:
				frames++
			case *dataPayload:
				data++
			}
		})
	}
	return frames, data
}
