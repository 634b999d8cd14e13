// Package rcc implements the real-time control channel of §5: a single-hop,
// rate-limited, reliable transport for BCP control messages between
// neighboring daemons.
//
// Each RCC is modeled by the paper's three parameters — maximum message size
// S^RCC_max, maximum message rate R^RCC_max, and maximum per-message delay
// D^RCC_max (the latter is a property of the underlying reserved channel;
// this package enforces the first two and leaves delivery latency to the
// link layer it sends through). Control messages are collected between
// eligible times and batched into RCC frames; every frame carrying payload
// is acknowledged hop-by-hop (cumulative ACK, piggybacked when possible) and
// retransmitted on timeout; sequence numbers make duplicate delivery
// detectable and suppressed.
package rcc

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/runtime"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/wire"
)

// RetxTimeout is the retransmission timeout for unacknowledged frames.
const RetxTimeout = 20 * time.Millisecond

// Params are the RCC model parameters.
type Params struct {
	// SMax is the maximum RCC frame size in bytes.
	SMax int
	// RMax is the maximum frame rate (frames/second): two frames are
	// separated by at least 1/RMax.
	RMax float64
	// AckDelay is how long the receiver may wait for a piggyback
	// opportunity before sending a pure-ACK frame.
	AckDelay sim.Duration
}

// DefaultParams provisions an RCC that fits a handful of control messages
// per frame at a 1 kHz frame rate.
func DefaultParams() Params {
	return Params{
		SMax:     256,
		RMax:     1000,
		AckDelay: 2 * time.Millisecond,
	}
}

// BufferPool recycles marshaled frame buffers. It is a plain free list with
// no synchronization of its own: in the simulated world everything is
// single-threaded, and under the wall-clock runtime every Get/Put site runs
// inside the runtime's serialized execution context, which is the same
// guarantee. A nil *BufferPool is valid and degrades to plain allocation,
// which keeps standalone endpoints (tests, fuzzers) working unchanged.
//
// Ownership protocol: the endpoint Gets a buffer at marshal time and hands
// it to the send callback; whoever ultimately consumes the frame (the
// receiving daemon, after HandleFrame, or the transport's drop path) Puts it
// back — never twice. Outstanding tracks Get/Put pairing so pool-balance
// tests can prove dropped frames are reclaimed rather than leaked.
type BufferPool struct {
	free [][]byte
	out  int // buffers handed out and not yet returned
}

// Outstanding returns the number of buffers currently checked out (Gets
// minus Puts). Zero-capacity Puts are not counted, matching Put.
func (p *BufferPool) Outstanding() int {
	if p == nil {
		return 0
	}
	return p.out
}

// Get returns an empty buffer with at least sizeHint capacity when the pool
// has one; otherwise it allocates.
func (p *BufferPool) Get(sizeHint int) []byte {
	if p != nil {
		p.out++
		if n := len(p.free); n > 0 {
			b := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			if cap(b) >= sizeHint {
				return b[:0]
			}
			// Too small for this frame: drop it and allocate fresh.
		}
	}
	return make([]byte, 0, sizeHint)
}

// Put returns a buffer to the pool. Putting a zero-capacity buffer is a
// no-op.
func (p *BufferPool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.out--
	p.free = append(p.free, b[:0])
}

// Stats counts endpoint activity.
type Stats struct {
	FramesSent      uint64
	PureAcksSent    uint64
	Retransmissions uint64
	FramesReceived  uint64
	Duplicates      uint64
	OutOfOrder      uint64
	ControlsSent    uint64
	ControlsDeliv   uint64
}

// Endpoint is one direction of an RCC: the sender state at the upstream
// daemon plus the receiver state for the reverse direction's ACKs.
type Endpoint struct {
	eng  runtime.Runtime
	p    Params
	send func([]byte)       // hand a marshaled frame to the link layer
	recv func(wire.Control) // upcall for each delivered control message
	// recvBatch, when set, replaces recv for in-order payload frames: the
	// daemon gets the whole decoded control batch in one upcall, in frame
	// order. See SetBatchReceiver for the slice-ownership contract.
	recvBatch func([]wire.Control)

	// Sender state.
	outQ      []wire.Control
	unacked   []sentFrame
	nextSeq   uint32
	lastTx    sim.Time
	everTx    bool
	retxDue   bool
	txTimer   sim.Timer
	retxTimer sim.Timer

	// Receiver state.
	recvCum    uint32
	ackPending bool
	ackTimer   sim.Timer

	stats Stats

	// Recycled scratch. pool (optional, shared across the network's
	// endpoints) recycles marshaled frame buffers; ctlFree recycles the
	// per-frame control batches held in unacked; rxCtls is the decode
	// scratch reused across received frames. fireFn/retxFn/ackFn are the
	// timer callbacks, built once at construction so re-arming a timer does
	// not allocate a closure per event.
	pool    *BufferPool
	ctlFree [][]wire.Control
	rxCtls  []wire.Control
	fireFn  func()
	retxFn  func()
	ackFn   func()

	// em reports frame/retransmission/ACK events when a sink is attached
	// (SetTrace); emNode/emLink identify this endpoint in the stream.
	em     trace.Emitter
	emNode topology.NodeID
	emLink topology.LinkID
}

type sentFrame struct {
	seq      uint32
	controls []wire.Control
}

// NewEndpoint creates an RCC endpoint on the given runtime (sim.Engine for
// deterministic runs, realtime.Runtime for live ones). send transmits a
// marshaled frame over the underlying link; recv receives each control
// message exactly once, in order.
func NewEndpoint(eng runtime.Runtime, p Params, send func([]byte), recv func(wire.Control)) *Endpoint {
	if wire.MaxControlsForBudget(p.SMax) < 1 {
		panic(fmt.Sprintf("rcc: SMax %d cannot fit a control message", p.SMax))
	}
	if p.RMax <= 0 {
		panic("rcc: non-positive RMax")
	}
	if send == nil || recv == nil {
		panic("rcc: nil callbacks")
	}
	e := &Endpoint{eng: eng, p: p, send: send, recv: recv, nextSeq: 1}
	e.fireFn = e.fire
	e.retxFn = func() {
		if len(e.unacked) == 0 {
			return
		}
		e.retxDue = true
		e.pump()
		e.armRetx()
	}
	e.ackFn = func() {
		if e.ackPending {
			e.pump()
		}
	}
	return e
}

// SetBufferPool attaches a frame-buffer pool, typically shared by every
// endpoint in a network. See BufferPool for the ownership protocol. A nil
// pool (the default) means each frame gets a fresh buffer.
func (e *Endpoint) SetBufferPool(p *BufferPool) { e.pool = p }

// Stats returns a snapshot of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// SetTrace attaches a protocol-event sink; node and link identify the
// sending side of this endpoint in the event stream. A nil sink disables
// emission (the default).
func (e *Endpoint) SetTrace(s trace.Sink, node topology.NodeID, link topology.LinkID) {
	e.em = trace.NewEmitter(s)
	e.emNode = node
	e.emLink = link
}

// Backlog returns the number of controls waiting to be framed plus those in
// unacknowledged frames.
func (e *Endpoint) Backlog() int {
	n := len(e.outQ)
	for _, f := range e.unacked {
		n += len(f.controls)
	}
	return n
}

// Restart begins a new session between the two endpoints of a link pair (a
// sends what b receives and the reverse), as a reboot of either end must:
// it stops both endpoints' timers and drops their queued controls and
// unacknowledged frames, whose batches return to the free list. Sequence
// numbers continue; each receiver re-bases on its peer's last sequence
// number, so a frame of the old session still in flight reads as a
// duplicate and its ack, which cannot exceed that number, covers no frame
// of the new session. Restart allocates nothing once the free list has
// held the endpoints' batches before.
func Restart(a, b *Endpoint) {
	a.reset()
	b.reset()
	a.recvCum, b.recvCum = b.nextSeq-1, a.nextSeq-1
}

// reset clears one endpoint's session state for Restart.
func (e *Endpoint) reset() {
	e.txTimer.Stop()
	e.retxTimer.Stop()
	e.ackTimer.Stop()
	e.release(len(e.unacked))
	e.outQ = e.outQ[:0]
	e.retxDue, e.ackPending = false, false
}

// release drops the n oldest unacknowledged frames, returning their control
// batches to the free list, and compacts the window in place.
func (e *Endpoint) release(n int) {
	if n == 0 {
		return
	}
	for _, f := range e.unacked[:n] {
		if cap(f.controls) > 0 {
			e.ctlFree = append(e.ctlFree, f.controls[:0])
		}
	}
	k := copy(e.unacked, e.unacked[n:])
	clear(e.unacked[k:])
	e.unacked = e.unacked[:k]
}

// SetBatchReceiver upgrades the endpoint to batched delivery: in-order
// payload frames hand the daemon the whole decoded control batch in one
// upcall instead of len(Controls) per-message calls, preserving in-frame
// order. The slice is the endpoint's decode scratch — valid only for the
// duration of the upcall; the receiver must not retain it. The per-message
// recv callback stays as given to NewEndpoint (unused while a batch
// receiver is set).
func (e *Endpoint) SetBatchReceiver(fn func([]wire.Control)) { e.recvBatch = fn }

// Submit queues a control message for transmission.
func (e *Endpoint) Submit(c wire.Control) {
	e.outQ = append(e.outQ, c)
	e.pump()
}

// SubmitBatch queues every control in cs for transmission and schedules at
// most one frame, exactly as len(cs) sequential Submit calls would (each
// Submit after the first finds the tx timer armed and returns). cs is
// copied into the out-queue; the caller keeps ownership of the slice.
func (e *Endpoint) SubmitBatch(cs []wire.Control) {
	if len(cs) == 0 {
		return
	}
	e.outQ = append(e.outQ, cs...)
	e.pump()
}

// interval is the minimum spacing between frames.
func (e *Endpoint) interval() sim.Duration {
	return sim.Duration(float64(time.Second) / e.p.RMax)
}

// pump schedules a frame transmission at the next eligible time if there is
// anything to send (payload, retransmission, or pending ACK) and none is
// scheduled yet. All transmissions flow through fire, so the R^RCC_max
// eligibility rule is enforced in one place.
func (e *Endpoint) pump() {
	if len(e.outQ) == 0 && !e.ackPending && !(e.retxDue && len(e.unacked) > 0) {
		return
	}
	if e.txTimer.Active() {
		return
	}
	at := e.eng.Now()
	if e.everTx {
		if next := e.lastTx.Add(e.interval()); next > at {
			at = next
		}
	}
	e.txTimer = e.eng.At(at, e.fireFn)
}

// getCtlBuf returns an empty control batch with room for n messages,
// recycled from previously acknowledged frames when possible.
func (e *Endpoint) getCtlBuf(n int) []wire.Control {
	if k := len(e.ctlFree); k > 0 {
		b := e.ctlFree[k-1]
		e.ctlFree[k-1] = nil
		e.ctlFree = e.ctlFree[:k-1]
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]wire.Control, 0, n)
}

// fire sends exactly one frame: a retransmission of the oldest
// unacknowledged frame takes precedence over new payload, which takes
// precedence over a pure ACK.
func (e *Endpoint) fire() {
	f := wire.Frame{Ack: e.recvCum}
	switch {
	case e.retxDue && len(e.unacked) > 0:
		sf := e.unacked[0]
		f.Seq, f.Controls = sf.seq, sf.controls
		e.retxDue = false
		e.stats.Retransmissions++
		if e.em.Enabled() {
			e.emit(trace.KindRCCRetransmit, int64(f.Seq))
		}
	case len(e.outQ) > 0:
		n := len(e.outQ)
		if max := wire.MaxControlsForBudget(e.p.SMax); n > max {
			n = max
		}
		f.Seq = e.nextSeq
		e.nextSeq++
		f.Controls = append(e.getCtlBuf(n), e.outQ[:n]...)
		e.outQ = append(e.outQ[:0], e.outQ[n:]...)
		e.unacked = append(e.unacked, sentFrame{seq: f.Seq, controls: f.Controls})
		e.stats.ControlsSent += uint64(len(f.Controls))
		if e.em.Enabled() {
			e.emit(trace.KindRCCFrame, int64(len(f.Controls)))
		}
	case e.ackPending:
		e.stats.PureAcksSent++
		if e.em.Enabled() {
			e.emit(trace.KindRCCAck, int64(f.Ack))
		}
	default:
		return
	}
	e.ackPending = false
	e.ackTimer.Stop()
	data, err := f.MarshalAppend(e.pool.Get(f.Size()))
	if err != nil {
		panic("rcc: marshal: " + err.Error())
	}
	e.lastTx = e.eng.Now()
	e.everTx = true
	e.stats.FramesSent++
	e.send(data)
	if len(e.unacked) > 0 {
		e.armRetx()
	}
	e.pump()
}

// emit records one endpoint event; callers check e.em.Enabled() first.
func (e *Endpoint) emit(kind trace.Kind, aux int64) {
	e.em.Emit(trace.Event{
		At:   e.eng.Now(),
		Kind: kind,
		Node: e.emNode,
		Link: e.emLink,
		Aux:  aux,
	})
}

// armRetx (re)starts the retransmission timeout for the oldest
// unacknowledged frame.
func (e *Endpoint) armRetx() {
	e.retxTimer.Stop()
	e.retxTimer = e.eng.Schedule(RetxTimeout, e.retxFn)
}

// HandleFrame processes a frame received from the underlying link: it
// applies the cumulative ACK to the sender state and delivers in-order
// payload to the daemon, scheduling an acknowledgment.
func (e *Endpoint) HandleFrame(data []byte) {
	f, err := wire.UnmarshalScratch(data, e.rxCtls)
	if err != nil {
		// A corrupted frame is dropped; retransmission recovers it.
		return
	}
	if f.Controls != nil {
		// Reclaim the decode scratch for the next frame; Controls stay
		// valid through the delivery loop below because frame delivery is
		// event-driven — no nested HandleFrame runs within this call.
		e.rxCtls = f.Controls[:0]
	}
	e.stats.FramesReceived++
	// ACK processing for our sender side.
	acked := 0
	for acked < len(e.unacked) && e.unacked[acked].seq <= f.Ack {
		acked++
	}
	e.release(acked)
	if len(e.unacked) == 0 {
		e.retxTimer.Stop()
	}
	if f.Seq == 0 {
		return // pure ACK
	}
	switch {
	case f.Seq == e.recvCum+1:
		e.recvCum++
		e.stats.ControlsDeliv += uint64(len(f.Controls))
		if e.recvBatch != nil {
			e.recvBatch(f.Controls)
		} else {
			for _, c := range f.Controls {
				e.recv(c)
			}
		}
	case f.Seq <= e.recvCum:
		e.stats.Duplicates++
	default:
		// Gap: a predecessor was lost; discard and let the peer retransmit.
		e.stats.OutOfOrder++
	}
	e.scheduleAck()
}

// scheduleAck arranges for the current recvCum to reach the peer: either a
// payload frame goes out soon and piggybacks it, or a pure-ACK fires after
// AckDelay.
func (e *Endpoint) scheduleAck() {
	e.ackPending = true
	if len(e.outQ) > 0 {
		e.pump() // piggyback opportunity
		return
	}
	if e.ackTimer.Active() {
		return
	}
	e.ackTimer = e.eng.Schedule(e.p.AckDelay, e.ackFn)
}
