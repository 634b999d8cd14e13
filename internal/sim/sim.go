// Package sim is a deterministic discrete-event simulation engine. It drives
// the protocol-level BCP experiments: control-message transmission over the
// RCC network, failure detection, rejoin timers, and data transfer.
//
// Events scheduled at equal times fire in scheduling order (FIFO), so runs
// are reproducible for a given seed.
//
// The event queue is a TimerArena (arena.go): a 4-ary heap whose entries
// carry their (deadline, sequence) key inline beside the slot they fire.
// Schedule/At hand out value handles to slots, Stop removes the event at
// once, and steady-state scheduling performs zero allocations.
// internal/realtime runs the wall clock on the same type.
//
// A caller that may need an event at a known instant can reserve its key
// now (ReserveKey) and queue it later only if it turns out to be needed
// (AtKey): the event then fires exactly where it would have had it been
// scheduled at reservation time, and Fired says whether that point has
// passed. sched.Link is the one user: a packet hop's transmit-done event is
// queued only when something waits on it.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration for callers' convenience; simulated
// durations use the same unit (nanoseconds).
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return Duration(t).String() }

// Engine is the simulation executive. It is not safe for concurrent use:
// the simulated world is single-threaded by design, which keeps protocol
// traces reproducible.
type Engine struct {
	now Time
	// mark is the first sequence number at now not yet run: every key
	// (now, seq < mark) has fired. Running an event sets it past the event's
	// own seq; RunUntil, which has run everything due, sets it past every
	// seq handed out.
	mark      uint64
	timers    TimerArena
	rng       *rand.Rand
	processed uint64
}

// Key is an event's place in the firing order: its deadline, then the
// sequence number that breaks ties among equal deadlines.
type Key struct {
	At  Time
	seq uint64
}

// New creates an engine whose random source is seeded deterministically.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return e.timers.Len() }

// Schedule runs fn after delay d. A negative delay panics: the simulated
// world cannot rewrite its past.
func (e *Engine) Schedule(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	// Add's body, one call shallower: Add itself is not inlined.
	idx, gen, _ := e.timers.AddKeyed(t, e.timers.ReserveSeq(), fn)
	return Timer{host: e, idx: idx, gen: gen}
}

// ReserveKey takes the key an event scheduled now for time t would get,
// without scheduling it. AtKey may queue one event under it later, as long
// as the key has not fired.
func (e *Engine) ReserveKey(t Time) Key {
	if t < e.now {
		panic(fmt.Sprintf("sim: reserve at %v before now %v", t, e.now))
	}
	return Key{At: t, seq: e.timers.ReserveSeq()}
}

// AtKey runs fn under the reserved key k: it fires where an event scheduled
// when k was reserved would have. Queueing under a fired key panics, and a
// key may be queued at most once.
func (e *Engine) AtKey(k Key, fn func()) Timer {
	if e.Fired(k) {
		panic(fmt.Sprintf("sim: key at %v has already fired (now %v)", k.At, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	idx, gen, _ := e.timers.AddKeyed(k.At, k.seq, fn)
	return Timer{host: e, idx: idx, gen: gen}
}

// Fired reports whether the engine has run past key k: an event queued
// under it would already have fired (or is the one running now).
func (e *Engine) Fired(k Key) bool {
	return k.At < e.now || k.At == e.now && k.seq < e.mark
}

// StopTimer implements TimerHost.
func (e *Engine) StopTimer(idx int32, gen uint32) bool { return e.timers.Stop(idx, gen) }

// TimerActive implements TimerHost.
func (e *Engine) TimerActive(idx int32, gen uint32) bool { return e.timers.Active(idx, gen) }

// fire executes the next pending event if it is due at or before limit,
// advancing the clock to it, and reports whether one ran.
func (e *Engine) fire(limit Time) bool {
	at, seq, fn, ok := e.timers.Pop(limit)
	if !ok {
		return false
	}
	e.now = at
	e.mark = seq + 1
	e.processed++
	fn()
	return true
}

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed (false when the queue is empty).
func (e *Engine) Step() bool { return e.fire(math.MaxInt64) }

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with firing times <= t, then advances the clock
// to exactly t.
func (e *Engine) RunUntil(t Time) {
	for e.fire(t) {
	}
	if t >= e.now {
		e.now = t
		e.mark = e.timers.seq
	}
}

// RunFor executes events for the next d of simulated time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }
