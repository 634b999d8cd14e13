package realtime

import (
	"testing"
	"time"
)

// TestWaiterUntil checks the three ways out of a wait on both sides of the
// coarse horizon, and that Due never comes early.
func TestWaiterUntil(t *testing.T) {
	w := NewWaiter()
	defer w.Close()
	stop := make(chan struct{})
	wake := make(chan struct{}, 1)

	for _, d := range []time.Duration{0, 300 * time.Microsecond, coarseHorizon + 3*time.Millisecond} {
		deadline := time.Now().Add(d)
		if got := w.Until(deadline, stop, wake); got != Due {
			t.Fatalf("Until(now+%v) = %v, want Due", d, got)
		}
		if early := time.Until(deadline); early > 0 {
			t.Fatalf("Until(now+%v) returned Due %v early", d, early)
		}
	}

	// Inside the horizon, beyond it, and with no deadline at all.
	early := func() []time.Time {
		return []time.Time{time.Now().Add(coarseHorizon / 2), time.Now().Add(time.Hour), {}}
	}
	for _, deadline := range early() {
		wake <- struct{}{}
		if got := w.Until(deadline, stop, wake); got != Woken {
			t.Fatalf("Until(%v) with a wake pending = %v, want Woken", deadline, got)
		}
	}
	close(stop)
	for _, deadline := range early() {
		if got := w.Until(deadline, stop, wake); got != Stopped {
			t.Fatalf("Until(%v) with stop closed = %v, want Stopped", deadline, got)
		}
	}
}

// TestIdleRuntimeStaysOnGoTimer checks that precision is paid for only near
// a deadline: a runtime whose only timer is an hour away makes no precise
// sleep, and neither does one with an empty heap.
func TestIdleRuntimeStaysOnGoTimer(t *testing.T) {
	r := New(1)
	time.Sleep(10 * time.Millisecond) // empty heap
	far := r.Schedule(time.Hour, func() { t.Error("distant timer fired") })
	time.Sleep(30 * time.Millisecond)
	far.Stop()
	r.Stop() // joins the timer goroutine, so the count below is settled
	if n := r.waiter.precise; n != 0 {
		t.Fatalf("idle runtime made %d precise sleeps, want 0", n)
	}

	// The counter does count: a deadline inside the horizon takes precise sleeps.
	r = New(1)
	done := make(chan struct{})
	r.Schedule(time.Millisecond, func() { close(done) })
	<-done
	r.Stop()
	if r.waiter.precise == 0 {
		t.Fatal("a 1 ms timer was waited for without a precise sleep")
	}
}
