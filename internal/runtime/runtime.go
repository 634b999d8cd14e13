// Package runtime defines the execution seam between the protocol stack and
// whatever drives it. The protocol daemons (bcpd, rcc, sched) are written
// against Runtime alone: a clock, one-shot timers, and a random source. Two
// implementations exist:
//
//   - sim.Engine: deterministic virtual time. Events fire in (time, FIFO)
//     order on a single goroutine; runs are bit-identical for a given seed.
//   - realtime.Runtime: wall clock. Timers fire against the monotonic clock,
//     and all protocol callbacks are serialized on one execution lock so the
//     daemons keep their single-threaded world view.
//
// Both queue their timers in a sim.TimerArena and hand out sim.Timer values
// (the handle delegates to its issuing sim.TimerHost), so protocol code that
// arms, stops, and queries timers is the same code under either clock.
package runtime

import (
	"math/rand"

	"github.com/rtcl/bcp/internal/sim"
)

// Runtime is the execution environment a protocol daemon runs in. Callers
// must treat it as single-threaded: every callback passed to Schedule/At is
// invoked with the runtime's execution serialized (trivially true in sim;
// enforced by a lock in realtime), so protocol state needs no further
// synchronization.
type Runtime interface {
	// Now returns the current time: virtual in sim, monotonic nanoseconds
	// since runtime start on the wall clock.
	Now() sim.Time
	// Schedule runs fn after delay d and returns a stoppable handle.
	Schedule(d sim.Duration, fn func()) sim.Timer
	// At runs fn at absolute time t (>= Now in sim; clamped to now by the
	// wall-clock runtime).
	At(t sim.Time, fn func()) sim.Timer
	// RNG returns the runtime's random source. It is only safe to use from
	// runtime-serialized callbacks.
	RNG() *rand.Rand
}

// Engine's methods line up with Runtime exactly; the seam costs sim nothing.
var _ Runtime = (*sim.Engine)(nil)
