package bcpd

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtcl/bcp/internal/realtime"
	"github.com/rtcl/bcp/internal/topology"
)

// PostFunc enqueues fn on a node's actor mailbox, reporting success. Live
// transports deliver through it so every protocol callback runs
// runtime-serialized; realtime.Runtime.Post has exactly this shape. It must
// not block (a full mailbox refuses): the pipe calls it under its lock.
type PostFunc func(node int, fn func()) bool

// PipeTransport carries protocol traffic between live daemons through one
// in-memory delay line: every message, whatever its link, joins one FIFO with
// the deadline send time + propagation delay, and one goroutine holds the head
// until its deadline, then posts delivery to the receiving node's actor
// mailbox. The propagation delay is one constant per network, so deadlines
// are monotone in send order and FIFO order is deadline order — no heap — and
// each link's messages keep their order. It is the loss-free-wire live
// transport for tests and cmd/bcplive — losses still happen at the edges (down
// links, full links, full mailboxes), which is what the protocol is built to
// survive.
//
// Ownership: the line carries the pooled frame buffer itself (every Send and
// delivery runs runtime-serialized, so the network's pools never see
// concurrent access); a message dropped at send time is reclaimed on the
// spot. A message dropped after leaving the sender (transport closing,
// mailbox full) is abandoned to the GC and counted — its buffer cannot be
// returned to the pool from an unserialized goroutine.
type PipeTransport struct {
	post  PostFunc
	depth int // per-link bound on messages in flight

	n    *Network
	prop time.Duration
	dest []int // receiving node, by link
	down []atomic.Bool

	// mu guards the line and the in-flight counts: senders run
	// runtime-serialized, the line's goroutine does not. The line's goroutine
	// also holds it while it posts what it pops, so an empty line means every
	// message has been posted or counted in dropped.
	mu       sync.Mutex
	line     []pipeItem // ring: nq items starting at head; len is a power of two
	head, nq int
	inflight []int // messages in the line, by link

	wake    chan struct{} // a message joined an empty line
	stop    chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup
	dropped atomic.Uint64 // messages lost in transport (not link-down drops)
}

type pipeItem struct {
	kind  uint8
	link  topology.LinkID
	frame []byte
	data  *dataPayload
	at    time.Time // delivery deadline (send time + propagation delay)
}

const (
	pipeFrame     uint8 = 1
	pipeData      uint8 = 2
	pipeHeartbeat uint8 = 3
)

// NewPipeTransport creates a pipe transport delivering through post (a
// realtime.Runtime's Post method). depth bounds the messages each link holds
// in flight (<=0 means a generous default).
func NewPipeTransport(post PostFunc, depth int) *PipeTransport {
	if post == nil {
		panic("bcpd: nil post")
	}
	if depth <= 0 {
		depth = 256
	}
	return &PipeTransport{
		post:  post,
		depth: depth,
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
}

// Attach sizes the per-link state and starts the line's goroutine.
func (t *PipeTransport) Attach(n *Network) {
	t.n = n
	t.prop = time.Duration(n.cfg.PropDelay)
	g := n.mgr.Graph()
	t.dest = make([]int, g.NumLinks())
	t.down = make([]atomic.Bool, g.NumLinks())
	t.inflight = make([]int, g.NumLinks())
	for _, l := range g.Links() {
		t.dest[l.ID] = int(l.To)
	}
	t.line = make([]pipeItem, 64)
	t.wg.Add(1)
	go t.run()
}

// run is the delay line: wait for the head's deadline, post everything due
// to its destination's mailbox, repeat.
func (t *PipeTransport) run() {
	defer t.wg.Done()
	w := realtime.NewWaiter()
	defer w.Close()
	for {
		t.mu.Lock()
		var deadline time.Time // empty line: nothing to do until woken
		if t.nq > 0 {
			deadline = t.line[t.head].at
		}
		t.mu.Unlock()
		// wake fires when a message joins an empty line; a head, once there,
		// stays the head until this goroutine pops it.
		switch w.Until(deadline, t.stop, t.wake) {
		case realtime.Stopped:
			return
		case realtime.Woken:
			continue
		}

		now := time.Now()
		t.mu.Lock()
		for t.nq > 0 && !t.line[t.head].at.After(now) {
			it := t.line[t.head]
			t.line[t.head] = pipeItem{}
			t.inflight[it.link]--
			t.head = (t.head + 1) & (len(t.line) - 1)
			t.nq--
			t.deliver(it)
		}
		t.mu.Unlock()
	}
}

// deliver posts one message to the mailbox of its link's receiving node.
func (t *PipeTransport) deliver(it pipeItem) {
	n, l := t.n, it.link
	var ok bool
	switch it.kind {
	case pipeFrame:
		frame := it.frame
		ok = t.post(t.dest[l], func() { n.deliverFrame(l, frame) })
	case pipeData:
		data := it.data
		ok = t.post(t.dest[l], func() { n.deliverData(l, data) })
	case pipeHeartbeat:
		ok = t.post(t.dest[l], func() { n.deliverHeartbeat(l) })
	}
	if !ok {
		t.dropped.Add(1)
	}
}

// offer submits an item to link l from runtime-serialized context, reporting
// acceptance. A down link or a link with depth messages in flight refuses;
// the caller reclaims the payload.
func (t *PipeTransport) offer(l topology.LinkID, it pipeItem) bool {
	if t.down[l].Load() || t.closed.Load() {
		return false
	}
	it.link = l
	t.mu.Lock()
	if t.inflight[l] >= t.depth {
		t.mu.Unlock()
		t.dropped.Add(1)
		return false
	}
	// Stamped under mu, so the line is in deadline order.
	it.at = time.Now().Add(t.prop)
	if t.nq == len(t.line) {
		grown := make([]pipeItem, 2*len(t.line))
		k := copy(grown, t.line[t.head:])
		copy(grown[k:], t.line[:t.head])
		t.line, t.head = grown, 0
	}
	t.line[(t.head+t.nq)&(len(t.line)-1)] = it
	t.nq++
	t.inflight[l]++
	first := t.nq == 1
	t.mu.Unlock()
	if first {
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// SendFrame submits a control frame; refused frames return their buffer to
// the pool immediately (the send side runs runtime-serialized).
func (t *PipeTransport) SendFrame(l topology.LinkID, frame []byte) {
	if !t.offer(l, pipeItem{kind: pipeFrame, frame: frame}) {
		t.n.reclaimFrame(frame)
	}
}

// SendData submits a data message; refused boxes are reclaimed immediately.
func (t *PipeTransport) SendData(l topology.LinkID, p *dataPayload) {
	if !t.offer(l, pipeItem{kind: pipeData, data: p}) {
		t.n.reclaimData(p)
	}
}

// SendHeartbeat submits a heartbeat; heartbeats carry nothing pooled.
func (t *PipeTransport) SendHeartbeat(l topology.LinkID) {
	t.offer(l, pipeItem{kind: pipeHeartbeat})
}

// SetLinkDown fails or repairs link l. Unlike the sim transmitter there is
// no queue to clear: messages already in the line left the sender before the
// crash and still arrive, like the sim's in-propagation flight queue.
func (t *PipeTransport) SetLinkDown(l topology.LinkID, down bool) { t.down[l].Store(down) }

// Dropped returns messages lost inside the transport (full links, delivery
// refused by a full or stopping mailbox). Link-down drops are not counted
// here — they are the crash model, accounted at the send sites.
func (t *PipeTransport) Dropped() uint64 { return t.dropped.Load() }

// Close stops the line's goroutine. Call before stopping the runtime; items
// still in the line are abandoned to the GC.
func (t *PipeTransport) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	close(t.stop)
	t.wg.Wait()
}
