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
	now       Time
	timers    TimerArena
	rng       *rand.Rand
	processed uint64
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
	idx, gen, _ := e.timers.Add(t, fn)
	return Timer{host: e, idx: idx, gen: gen}
}

// StopTimer implements TimerHost.
func (e *Engine) StopTimer(idx int32, gen uint32) bool { return e.timers.Stop(idx, gen) }

// TimerActive implements TimerHost.
func (e *Engine) TimerActive(idx int32, gen uint32) bool { return e.timers.Active(idx, gen) }

// fire executes the next pending event if it is due at or before limit,
// advancing the clock to it, and reports whether one ran.
func (e *Engine) fire(limit Time) bool {
	at, fn, ok := e.timers.Pop(limit)
	if !ok {
		return false
	}
	e.now = at
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
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for the next d of simulated time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }
