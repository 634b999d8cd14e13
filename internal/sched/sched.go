// Package sched implements the run-time side of the real-time channel
// service — the paper's Real-time Message Transmission Protocol (RMTP)
// analogue: a non-preemptive static-priority link scheduler with three
// service classes (RCC control traffic above real-time data above
// best-effort).
//
// The scheduler drives packet timing in protocol-mode simulations on
// sim.Engine: each link serializes packets at its capacity, delivering them
// after a propagation delay. Failed links drop everything silently, matching
// the paper's crash model.
package sched

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/sim"
)

// Class is a packet service class; lower values are served first.
type Class uint8

// Service classes. The RCC network rides above real-time data so that
// control messages keep their delay bound even through congested links
// (the capacity reserved for RCCs makes this sound; see §5.2).
const (
	ClassControl Class = iota
	ClassRealTime
	ClassBestEffort
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassRealTime:
		return "realtime"
	case ClassBestEffort:
		return "besteffort"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Packet is one scheduled transmission unit.
type Packet struct {
	Class   Class
	Size    int // bytes
	Payload interface{}
}

// LinkStats counts a link's scheduler activity.
type LinkStats struct {
	Enqueued     uint64
	Delivered    uint64
	DroppedDown  uint64 // dropped because the link was down
	DroppedQueue uint64 // dropped because the class queue overflowed
	BusyTime     sim.Duration
}

// classQueue is a FIFO with a head index: popping advances head instead of
// reslicing away the backing array, and a drained queue resets to reuse its
// capacity, so steady-state traffic enqueues without allocating.
type classQueue struct {
	q    []Packet
	head int
}

func (cq *classQueue) len() int { return len(cq.q) - cq.head }

func (cq *classQueue) push(p Packet) { cq.q = append(cq.q, p) }

func (cq *classQueue) pop() Packet {
	p := cq.q[cq.head]
	cq.q[cq.head] = Packet{}
	cq.head++
	if cq.head == len(cq.q) {
		cq.q = cq.q[:0]
		cq.head = 0
	}
	return p
}

// popTail removes the newest packet.
func (cq *classQueue) popTail() Packet {
	n := len(cq.q) - 1
	p := cq.q[n]
	cq.q[n] = Packet{}
	cq.q = cq.q[:n]
	if cq.head == n {
		cq.q = cq.q[:0]
		cq.head = 0
	}
	return p
}

func (cq *classQueue) clear() {
	for i := cq.head; i < len(cq.q); i++ {
		cq.q[i] = Packet{}
	}
	cq.q = cq.q[:0]
	cq.head = 0
}

// Link is one simplex link's transmitter: a serializing resource at a fixed
// capacity with per-class FIFO queues and a propagation delay.
//
// A packet hop costs one event. When a transmission starts, the packet joins
// the flight queue and its arrival is scheduled at start + tx + prop; the
// key a transmit-done event at start + tx would get is only reserved
// (txEnd). That event is queued under the reserved key when something must
// happen at transmit end: a packet waits behind the one being serialized, or
// the link went down during its serialization (the packet is then lost). An
// idle link notices a finished transmission from the key alone
// (sim.Engine.Fired). Both events run on closures built once at
// construction, so a busy link schedules without allocating.
type Link struct {
	eng     *sim.Engine
	bps     float64 // capacity in bits/second
	prop    sim.Duration
	deliver func(Packet)
	onDrop  func(Packet) // observes every dropped packet; nil = silent drop

	queues   [numClasses]classQueue
	maxQueue int
	busy     bool // txEnd belongs to a started transmission; see serializing
	down     bool
	stats    LinkStats

	// flight holds every packet that has left the queues, in arrival order;
	// while serializing, its tail is the packet on the wire.
	flight    classQueue
	txEnd     sim.Key   // reserved key of the current transmission's end
	txQueued  bool      // txDoneFn is queued under txEnd
	arrival   sim.Timer // the tail's arrival, stopped if it is lost
	txDoneFn  func()
	deliverFn func()
}

// NewLink creates a transmitter on the simulator. capacityMbps is the link
// bandwidth in Mbps (1e6 bits/s); prop is the propagation delay; deliver is
// invoked in simulated time when a packet reaches the far end. maxQueue
// bounds each class queue (0 = unbounded).
func NewLink(eng *sim.Engine, capacityMbps float64, prop sim.Duration, maxQueue int, deliver func(Packet)) *Link {
	if capacityMbps <= 0 {
		panic("sched: non-positive capacity")
	}
	if deliver == nil {
		panic("sched: nil deliver")
	}
	l := &Link{eng: eng, bps: capacityMbps * 1e6, prop: prop, maxQueue: maxQueue, deliver: deliver}
	l.txDoneFn = func() {
		l.txQueued = false
		if l.down {
			// The packet never finished leaving the transmitter.
			l.arrival.Stop()
			l.stats.DroppedDown++
			l.drop(l.flight.popTail())
		}
		l.startNext()
	}
	l.deliverFn = func() {
		// The propagation delay is fixed per link and transmissions
		// serialize, so arrivals fire in flight-queue order.
		p := l.flight.pop()
		l.stats.Delivered++
		l.deliver(p)
	}
	return l
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetDropHandler registers h to observe every packet the link drops (link
// down, class-queue overflow, queue clear on failure). The caller uses it to
// reclaim pooled payloads that would otherwise leak when their packet is
// lost. h runs synchronously at the drop site; it must not re-enter the link.
func (l *Link) SetDropHandler(h func(Packet)) { l.onDrop = h }

func (l *Link) drop(p Packet) {
	if l.onDrop != nil {
		l.onDrop(p)
	}
}

// serializing reports whether a packet is on the wire now: a transmission
// started and its end key has not fired. Whether an event is queued under
// that key does not matter.
func (l *Link) serializing() bool {
	return l.busy && !l.eng.Fired(l.txEnd)
}

// queueTxDone makes sure the transmit-done event runs at txEnd.
func (l *Link) queueTxDone() {
	if !l.txQueued {
		l.txQueued = true
		l.eng.AtKey(l.txEnd, l.txDoneFn)
	}
}

// SetDown marks the link failed or repaired. Packets queued or being
// serialized when the link goes down are lost (a crashed link "loses all
// messages transmitted over it"); one being serialized is dropped when its
// transmission would have ended, unless the link is back up by then.
func (l *Link) SetDown(down bool) {
	l.down = down
	if down {
		// Queued packets are lost; packets already in propagation still
		// arrive — they left the transmitter before the crash.
		for c := range l.queues {
			cq := &l.queues[c]
			l.stats.DroppedDown += uint64(cq.len())
			if l.onDrop != nil {
				for i := cq.head; i < len(cq.q); i++ {
					l.onDrop(cq.q[i])
				}
			}
			cq.clear()
		}
		if l.serializing() {
			l.queueTxDone()
		}
	}
}

// Each visits every packet currently inside the transmitter: queued, being
// serialized, and in propagation. A packet being serialized when the link
// went down is included — it is still owned by the link until its
// transmission completes and the drop handler reclaims it.
func (l *Link) Each(fn func(Packet)) {
	for c := range l.queues {
		cq := &l.queues[c]
		for i := cq.head; i < len(cq.q); i++ {
			fn(cq.q[i])
		}
	}
	n := len(l.flight.q)
	if l.serializing() {
		n--
		fn(l.flight.q[n])
	}
	for i := l.flight.head; i < n; i++ {
		fn(l.flight.q[i])
	}
}

// Enqueue submits a packet for transmission.
func (l *Link) Enqueue(p Packet) {
	if p.Class >= numClasses {
		panic(fmt.Sprintf("sched: invalid class %d", p.Class))
	}
	if p.Size <= 0 {
		panic(fmt.Sprintf("sched: invalid size %d", p.Size))
	}
	if l.down {
		l.stats.DroppedDown++
		l.drop(p)
		return
	}
	if l.maxQueue > 0 && l.queues[p.Class].len() >= l.maxQueue {
		l.stats.DroppedQueue++
		l.drop(p)
		return
	}
	l.stats.Enqueued++
	l.queues[p.Class].push(p)
	if l.serializing() {
		l.queueTxDone()
	} else {
		l.startNext()
	}
}

// startNext dequeues the highest-priority packet and transmits it: reserve
// the transmit-done key first, so it takes the sequence number a scheduled
// transmit-done would have, then schedule the arrival. The transmit-done
// event is queued now only if another packet is already waiting.
func (l *Link) startNext() {
	for c := range l.queues {
		cq := &l.queues[c]
		if cq.len() == 0 {
			continue
		}
		p := cq.pop()
		waiting := cq.len() > 0
		for d := c + 1; !waiting && d < len(l.queues); d++ {
			waiting = l.queues[d].len() > 0
		}
		l.busy = true
		txTime := sim.Duration(float64(p.Size*8) / l.bps * float64(time.Second))
		l.stats.BusyTime += txTime
		l.txEnd = l.eng.ReserveKey(l.eng.Now().Add(txTime))
		l.flight.push(p)
		l.arrival = l.eng.At(l.txEnd.At.Add(l.prop), l.deliverFn)
		if waiting {
			l.queueTxDone()
		}
		return
	}
	l.busy = false
}
