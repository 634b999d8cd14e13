// Package realtime executes the protocol stack on the wall clock. It is the
// live sibling of sim.Engine behind the runtime.Runtime seam: the same daemon
// code, the same sim.Timer handles, the same release-before-fire and
// Stop-prevents-fire semantics — but deadlines come from the monotonic clock
// and delivery happens on real goroutines.
//
// # Execution model
//
// The runtime hosts per-node actors: one goroutine per node draining a
// bounded FIFO mailbox of closures (transport deliveries, injected
// operations). A mailbox's storage follows its backlog, not its bound: a ring
// that starts at a few slots and doubles only when full.
// Actor goroutines and the timer goroutine all execute protocol callbacks
// under one execution lock (mu), and whoever holds it fires the timers that
// are due before letting go: an actor runs one item, then what is due; an
// Exec runs its closure, then what is due. So from the protocol's point of
// view the world is still single-threaded — Network/Manager state is shared
// across nodes in this reproduction, and the lock preserves the invariant the
// sim gives for free. The actor boundary still buys what the paper's deployment
// needs: bounded per-node queues with drop-on-overflow backpressure (RCC
// retransmission recovers dropped control traffic), and no transport
// goroutine ever touches protocol state directly.
//
// # Timers
//
// Timers live in a sim.TimerArena, the queue sim.Engine runs on, held here
// behind the timer lock: value sim.Timer handles, O(log n) Stop,
// release-before-fire so a callback can re-arm into its own slot. One helper
// fires them: at one reading of the clock it pops due events one at a time
// in (deadline, sequence) order and runs each under the execution lock.
// Actors and Exec call it after their own callback, so a timer a callback
// arms for now runs before the lock is let go; a single timer goroutine
// calls it once the earliest deadline passes (Waiter: a Go timer while it is
// far, precise sleeps at 1 ns timer slack for the last stretch), for the
// deadlines no lock holder reaches first. Because popping happens with both
// locks held, Stop returning true guarantees the callback never runs, also
// when the stopper is a callback of the same round.
//
// # Shutdown
//
// Stop closes a shared stop channel and waits for the timer and actor
// goroutines. Senders race shutdown, so Post observes the stopped flag and
// reports the drop; once the flag is set no actor takes a further item and
// no firer a further timer. Stop must not be called from a protocol callback
// (it would deadlock on its own execution lock).
package realtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtcl/bcp/internal/runtime"
	"github.com/rtcl/bcp/internal/sim"
)

// The wall-clock runtime stands wherever sim.Engine does.
var _ runtime.Runtime = (*Runtime)(nil)

// Runtime drives protocol daemons on the wall clock. Create with New, start
// actors with StartActors, and always Stop it (not from a protocol callback).
type Runtime struct {
	start time.Time // monotonic epoch; Now() is nanoseconds since here

	// mu is the execution lock: every protocol callback — timer fire, actor
	// mailbox item, Exec closure — runs under it. tmu guards timers only.
	// Lock order is mu before tmu; Schedule/At/Stop take only tmu so
	// callbacks already holding mu can re-arm and cancel timers.
	mu  sync.Mutex
	tmu sync.Mutex

	timers sim.TimerArena

	rng *rand.Rand // only touched under mu (runtime-serialized callbacks)

	wake    chan struct{} // kicks the timer goroutine when an earlier deadline arrives
	waiter  *Waiter       // the timer goroutine's
	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	mailboxes []mailbox
	bound     int           // items one mailbox may hold
	dropped   atomic.Uint64 // mailbox posts refused (full or stopping)
}

// New creates a runtime with a seeded random source and starts its timer
// goroutine. The caller owns the lifecycle and must call Stop.
func New(seed int64) *Runtime {
	r := &Runtime{
		start:  time.Now(),
		rng:    rand.New(rand.NewSource(seed)),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		waiter: NewWaiter(),
	}
	r.wg.Add(1)
	go r.timerLoop()
	return r
}

// Now returns monotonic nanoseconds since the runtime started.
func (r *Runtime) Now() sim.Time { return sim.Time(time.Since(r.start)) }

// RNG returns the runtime's random source; safe only from runtime-serialized
// callbacks (or under Exec).
func (r *Runtime) RNG() *rand.Rand { return r.rng }

// Schedule runs fn after delay d. Negative delays are clamped to zero: the
// wall clock cannot fire in the past, and live callers (unlike sim scripts)
// may compute small negative slacks from measured times.
func (r *Runtime) Schedule(d sim.Duration, fn func()) sim.Timer {
	if d < 0 {
		d = 0
	}
	return r.At(r.Now().Add(d), fn)
}

// At runs fn at absolute runtime-clock time t, clamped to now.
func (r *Runtime) At(t sim.Time, fn func()) sim.Timer {
	if fn == nil {
		panic("realtime: nil event function")
	}
	r.tmu.Lock()
	idx, gen, head := r.timers.Add(t, fn)
	r.tmu.Unlock()

	if head {
		// The new deadline precedes what the timer goroutine is sleeping
		// toward; nudge it to recompute.
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	return sim.MakeTimer(r, idx, gen)
}

// StopTimer implements sim.TimerHost. Because due timers are popped with
// both mu and tmu held, a true return guarantees the callback will not run.
func (r *Runtime) StopTimer(idx int32, gen uint32) bool {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return r.timers.Stop(idx, gen)
}

// TimerActive implements sim.TimerHost.
func (r *Runtime) TimerActive(idx int32, gen uint32) bool {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return r.timers.Active(idx, gen)
}

// timerLoop waits for the earliest deadline, then fires what is due under
// mu. It is the runtime's fallback, not its only firer: whoever holds mu for
// an actor item or an Exec fires what is due before letting go, so a timer a
// callback arms for now does not wait for this goroutine to wake. Once Stop
// has begun a due timer stays queued, so the loop ends there rather than wait
// for it again.
func (r *Runtime) timerLoop() {
	defer r.wg.Done()
	defer r.waiter.Close()
	for !r.stopped.Load() {
		r.tmu.Lock()
		var deadline time.Time // empty arena: nothing to do until woken
		if at, ok := r.timers.Earliest(); ok {
			deadline = r.start.Add(time.Duration(at))
		}
		r.tmu.Unlock()

		switch r.waiter.Until(deadline, r.stop, r.wake) {
		case Stopped:
			return
		case Woken:
			continue // earlier deadline arrived; recompute the wait
		}

		r.mu.Lock()
		r.fireDue()
		r.mu.Unlock()
	}
}

// fireDue runs every timer due at one reading of the clock, in (deadline,
// sequence) order, one at a time like sim.Engine.Step: it takes tmu, pops and
// releases one due slot, drops tmu and runs the callback. The caller holds mu,
// so popping happens with both locks held: a protocol callback never observes
// a popped-but-unrun timer, release-before-fire lets a callback re-arm into
// its own slot, and a callback that stops a timer due in the same round finds
// it still queued, so that Stop returns true and the timer does not run. One
// reading of the clock per round: a callback that keeps arming immediate
// timers cannot hold mu against the actors forever. Once Stop has begun no
// timer is taken, as no mailbox item is.
func (r *Runtime) fireDue() {
	now := r.Now()
	for !r.stopped.Load() {
		r.tmu.Lock()
		_, _, fn, ok := r.timers.Pop(now)
		r.tmu.Unlock()
		if !ok {
			return
		}
		fn()
	}
}

// StartActors creates n per-node mailboxes, each bounded at capacity items,
// and starts one goroutine per node to drain them. Call once, before traffic
// flows.
func (r *Runtime) StartActors(n, capacity int) {
	if r.mailboxes != nil {
		panic("realtime: StartActors called twice")
	}
	r.bound = max(capacity, 1)
	// One allocation for the boxes and one for their first rings.
	r.mailboxes = make([]mailbox, n)
	rings := make([]func(), n*firstRing)
	for i := range r.mailboxes {
		mb := &r.mailboxes[i]
		mb.ring = rings[i*firstRing : (i+1)*firstRing]
		mb.ready = make(chan struct{}, 1)
		r.wg.Add(1)
		go r.actorLoop(mb)
	}
}

// actorLoop runs its mailbox's items in order, one per hold of the execution
// lock and then the timers that are due, and parks on the ready channel once
// the box is empty.
func (r *Runtime) actorLoop(mb *mailbox) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-mb.ready:
		}
		for fn := mb.pop(); fn != nil; fn = mb.pop() {
			if r.stopped.Load() {
				return
			}
			r.mu.Lock()
			fn()
			r.fireDue()
			r.mu.Unlock()
		}
	}
}

// Post enqueues fn on node's mailbox, reporting success. It never waits for
// room: a full mailbox or a stopping runtime drops the item (counted; RCC
// retransmission recovers dropped control traffic, and data loss is the
// condition the protocol is built to survive).
func (r *Runtime) Post(node int, fn func()) bool {
	if fn == nil {
		panic("realtime: nil mailbox item") // pop's empty mark
	}
	if r.stopped.Load() || !r.mailboxes[node].push(fn, r.bound) {
		r.dropped.Add(1)
		return false
	}
	return true
}

// firstRing is a mailbox's initial ring size: the backlog a quiet actor
// reaches, so a box allocates again only under a burst.
const firstRing = 8

// mailbox is one actor's bounded FIFO: a ring of len a power of two holding
// n items from head, guarded by a lock held only to move one item. ready
// holds a token whenever an item arrived in an empty box that the actor has
// not yet woken for.
type mailbox struct {
	mu    sync.Mutex
	ring  []func()
	head  int
	n     int
	ready chan struct{}
}

// push appends fn unless the box already holds bound items, doubling the ring
// when it is full, and wakes the actor if the box was empty.
func (mb *mailbox) push(fn func(), bound int) bool {
	mb.mu.Lock()
	if mb.n >= bound {
		mb.mu.Unlock()
		return false
	}
	if mb.n == len(mb.ring) {
		ring := make([]func(), 2*len(mb.ring))
		k := copy(ring, mb.ring[mb.head:])
		copy(ring[k:], mb.ring[:mb.head])
		mb.ring, mb.head = ring, 0
	}
	mb.ring[(mb.head+mb.n)&(len(mb.ring)-1)] = fn
	mb.n++
	wake := mb.n == 1
	mb.mu.Unlock()
	if wake {
		select {
		case mb.ready <- struct{}{}:
		default:
		}
	}
	return true
}

// pop removes and returns the oldest item, or nil when the box is empty.
func (mb *mailbox) pop() func() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.n == 0 {
		return nil
	}
	fn := mb.ring[mb.head]
	mb.ring[mb.head] = nil
	mb.head = (mb.head + 1) & (len(mb.ring) - 1)
	mb.n--
	return fn
}

// Exec runs fn under the execution lock, serialized with every timer and
// actor callback, then fires the timers that are due, those fn armed for now
// included, before it returns. External goroutines (tests, cmd/bcplive) use
// it to touch protocol state safely. Never call it from inside a protocol
// callback.
func (r *Runtime) Exec(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
	r.fireDue()
}

// Dropped returns how many mailbox posts were refused.
func (r *Runtime) Dropped() uint64 { return r.dropped.Load() }

// Stop shuts the runtime down: no further timers fire, actors drain nothing
// more, and all runtime goroutines have exited when it returns. Safe to call
// once, from outside any protocol callback. Pending mailbox items and timers
// are discarded.
func (r *Runtime) Stop() {
	if !r.stopped.CompareAndSwap(false, true) {
		return
	}
	close(r.stop)
	r.wg.Wait()
}
