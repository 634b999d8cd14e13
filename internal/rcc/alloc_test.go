package rcc

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/wire"
)

// pooledPair wires two pooled endpoints back-to-back the way bcpd does: the
// send callback hands the marshaled frame to the peer and returns it to the
// pool after delivery.
func pooledPair(eng *sim.Engine) (a, b *Endpoint) {
	pool := &BufferPool{}
	a = NewEndpoint(eng, DefaultParams(), func(data []byte) {
		b.HandleFrame(data)
		pool.Put(data)
	}, func(wire.Control) {})
	b = NewEndpoint(eng, DefaultParams(), func(data []byte) {
		a.HandleFrame(data)
		pool.Put(data)
	}, func(wire.Control) {})
	a.SetBufferPool(pool)
	b.SetBufferPool(pool)
	return a, b
}

// TestPooledRoundTripAllocFree asserts that a full
// submit→frame→deliver→ack round trip between pooled endpoints costs zero
// allocations once the pools are warm.
func TestPooledRoundTripAllocFree(t *testing.T) {
	eng := sim.New(1)
	a, _ := pooledPair(eng)
	roundTrip := func() {
		a.Submit(ctrl(1))
		eng.RunFor(sim.Duration(time.Second))
	}
	// Warm every pool on the path: frame buffers, control-slice scratch,
	// decode scratch, timer slots, and the outbound queue.
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Errorf("pooled round trip allocates %v allocs/op, want 0", avg)
	}
}

// TestRestartAllocFree restarts a pooled pair while a's frame is
// unacknowledged (b's ack is still waiting out AckDelay) and asserts that
// the restart, and the session that follows, allocate nothing once the
// free lists are warm.
func TestRestartAllocFree(t *testing.T) {
	eng := sim.New(1)
	a, b := pooledPair(eng)
	cycle := func() {
		a.Submit(ctrl(1))
		eng.RunFor(sim.Duration(time.Millisecond))
		if a.Backlog() != 1 {
			t.Fatalf("a's backlog before the restart is %d, want 1 unacknowledged control", a.Backlog())
		}
		Restart(a, b)
		eng.RunFor(sim.Duration(time.Second))
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("restart cycle allocates %v allocs/op, want 0", avg)
	}
}
