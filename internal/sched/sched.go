// Package sched implements the run-time side of the real-time channel
// service — the paper's Real-time Message Transmission Protocol (RMTP)
// analogue: a non-preemptive static-priority link scheduler with three
// service classes (RCC control traffic above real-time data above
// best-effort).
//
// The scheduler drives packet timing in protocol-mode simulations: each link
// serializes packets at its capacity, delivering them after a propagation
// delay. Failed links drop everything silently, matching the paper's crash
// model.
package sched

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/runtime"
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
// The transmit loop runs on two closures built once at construction
// (txDoneFn, deliverFn); the packet being serialized and those in
// propagation live in cur and the flight queue rather than in per-event
// closures, so a busy link schedules events without allocating.
type Link struct {
	eng     runtime.Runtime
	bps     float64 // capacity in bits/second
	prop    sim.Duration
	deliver func(Packet)
	onDrop  func(Packet) // observes every dropped packet; nil = silent drop

	queues   [numClasses]classQueue
	maxQueue int
	busy     bool
	down     bool
	stats    LinkStats

	cur       Packet     // packet currently being serialized
	flight    classQueue // packets in propagation, in delivery order
	txDoneFn  func()
	deliverFn func()
}

// NewLink creates a transmitter. capacityMbps is the link bandwidth in
// Mbps (1e6 bits/s); prop is the propagation delay; deliver is invoked in
// simulated time when a packet reaches the far end. maxQueue bounds each
// class queue (0 = unbounded).
func NewLink(eng runtime.Runtime, capacityMbps float64, prop sim.Duration, maxQueue int, deliver func(Packet)) *Link {
	if capacityMbps <= 0 {
		panic("sched: non-positive capacity")
	}
	if deliver == nil {
		panic("sched: nil deliver")
	}
	l := &Link{eng: eng, bps: capacityMbps * 1e6, prop: prop, maxQueue: maxQueue, deliver: deliver}
	l.txDoneFn = func() {
		if !l.down {
			// The packet enters propagation. The propagation delay is fixed
			// per link and transmissions serialize, so deliveries fire in
			// flight-queue order.
			l.flight.push(l.cur)
			l.eng.Schedule(l.prop, l.deliverFn)
		} else {
			l.stats.DroppedDown++
			l.drop(l.cur)
			l.cur = Packet{}
		}
		l.startNext()
	}
	l.deliverFn = func() {
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

// SetDown marks the link failed or repaired. Packets queued or in flight
// when the link goes down are lost (a crashed link "loses all messages
// transmitted over it").
func (l *Link) SetDown(down bool) {
	l.down = down
	if down {
		// Queued packets are lost; packets already in propagation (the
		// flight queue) still arrive — they left the transmitter before the
		// crash.
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
	if l.busy {
		fn(l.cur)
	}
	for i := l.flight.head; i < len(l.flight.q); i++ {
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
	if !l.busy {
		l.startNext()
	}
}

// startNext dequeues the highest-priority packet and transmits it.
func (l *Link) startNext() {
	found := false
	for c := Class(0); c < numClasses; c++ {
		if l.queues[c].len() > 0 {
			l.cur = l.queues[c].pop()
			found = true
			break
		}
	}
	if !found {
		l.busy = false
		return
	}
	l.busy = true
	txTime := sim.Duration(float64(l.cur.Size*8) / l.bps * float64(time.Second))
	l.stats.BusyTime += txTime
	l.eng.Schedule(txTime, l.txDoneFn)
}
