package realtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
)

// TestTimerFiresInOrder checks that timers armed out of order fire in
// deadline order, serialized on the execution lock.
func TestTimerFiresInOrder(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	add := func(v int) func() {
		return func() {
			mu.Lock()
			got = append(got, v)
			n := len(got)
			mu.Unlock()
			if n == 3 {
				close(done)
			}
		}
	}
	r.Schedule(30*time.Millisecond, add(3))
	r.Schedule(10*time.Millisecond, add(1))
	r.Schedule(20*time.Millisecond, add(2))

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timers did not fire")
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", got)
	}
}

// TestStopPreventsFire checks the sim contract: a Stop that returns true
// means the callback never runs, and the handle reads dead afterwards. The
// wait is a proof, not a sleep: a sentinel armed after the stopped timer at
// the same deadline fires after it in the arena's (deadline, sequence) order,
// so once the sentinel has run the stopped callback would have too.
func TestStopPreventsFire(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var fired atomic.Bool
	due := r.Now().Add(50 * time.Millisecond)
	tm := r.At(due, func() { fired.Store(true) })
	sentinel := make(chan struct{})
	r.At(due, func() { close(sentinel) })
	if !tm.Active() {
		t.Fatal("pending timer should be active")
	}
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer should return true")
	}
	if tm.Active() {
		t.Fatal("stopped timer should be inactive")
	}
	if tm.Stop() {
		t.Fatal("second Stop should be a no-op")
	}
	select {
	case <-sentinel:
	case <-time.After(5 * time.Second):
		t.Fatal("sentinel timer did not fire")
	}
	if fired.Load() {
		t.Fatal("stopped timer fired anyway")
	}
}

// TestEarlierTimerWakesSleeper checks the wake path At derives from the
// arena: with the timer goroutine asleep toward a distant head, a timer armed
// earlier becomes the head, wakes it and fires on its own deadline, and so
// does one armed earlier still; a timer armed behind the head wakes nothing
// and changes nothing.
func TestEarlierTimerWakesSleeper(t *testing.T) {
	r := New(1)
	defer r.Stop()

	r.Schedule(time.Hour, func() { t.Error("distant head fired") })
	// The timer goroutine begins a wait on the Go timer only once it has
	// read the hour as its deadline: from then on it is asleep toward it.
	for r.waiter.coarseWaits.Load() == 0 {
		runtime.Gosched()
	}
	fired := make(chan sim.Time, 2)
	arm := func(d time.Duration) sim.Time {
		due := r.Now().Add(d)
		r.At(due, func() { fired <- r.Now() })
		return due
	}
	dueLate := arm(120 * time.Millisecond)
	r.Schedule(30*time.Minute, func() { t.Error("timer behind the head fired") })
	dueEarly := arm(20 * time.Millisecond)
	for _, due := range []sim.Time{dueEarly, dueLate} {
		select {
		case at := <-fired:
			// Early is impossible; late by most of the gap between the two
			// deadlines means the sleeper was not woken for this one.
			if late := at.Sub(due); late < 0 || late > 50*time.Millisecond {
				t.Fatalf("timer due at %v fired at %v", due, at)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timer armed ahead of a sleeping head did not fire")
		}
	}
}

// TestRearmFromCallback checks release-before-fire: a callback can re-arm a
// periodic timer, recycling its own arena slot, and the old handle is dead.
func TestRearmFromCallback(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var n atomic.Int32
	done := make(chan struct{})
	var tick func()
	tick = func() {
		if n.Add(1) < 5 {
			r.Schedule(5*time.Millisecond, tick)
		} else {
			close(done)
		}
	}
	tm := r.Schedule(5*time.Millisecond, tick)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("re-armed timer stalled at %d ticks", n.Load())
	}
	if tm.Active() {
		t.Fatal("first generation should read dead once fired")
	}
	if tm.Stop() {
		t.Fatal("Stop on a fired handle must not cancel a later generation")
	}
}

// TestActorsSerializeAndDrop checks that posts execute under the execution
// lock (no data race on the shared counter without it) and that a full
// mailbox drops rather than blocks.
func TestActorsSerializeAndDrop(t *testing.T) {
	r := New(1)
	defer r.Stop()
	r.StartActors(4, 64)

	var wg, pending sync.WaitGroup // posters; accepted posts not yet run
	counter := 0                   // protected only by the runtime's execution lock
	var accepted atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pending.Add(1)
				if r.Post(node, func() { counter++; pending.Done() }) {
					accepted.Add(1)
				} else {
					pending.Done()
				}
			}
		}(g % 4)
	}
	wg.Wait()

	// Drain: every accepted post runs.
	drained := make(chan struct{})
	go func() { pending.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		var c int
		r.Exec(func() { c = counter })
		t.Fatalf("executed %d of %d accepted posts", c, accepted.Load())
	}
	var c int
	r.Exec(func() { c = counter })
	if int64(c) != accepted.Load() {
		t.Fatalf("executed %d posts, accepted %d", c, accepted.Load())
	}
	if accepted.Load()+int64(r.Dropped()) != 8*200 {
		t.Fatalf("accepted %d + dropped %d != 1600", accepted.Load(), r.Dropped())
	}
}

// TestStopIsCleanAndIdempotent checks that Stop returns with all runtime
// goroutines finished (it joins them, so nothing runs after it returns) and
// that posting after Stop is a counted drop, not a panic.
func TestStopIsCleanAndIdempotent(t *testing.T) {
	r := New(1)
	r.StartActors(8, 16)
	for i := 0; i < 8; i++ {
		r.Post(i, func() {})
	}
	r.Schedule(time.Hour, func() { t.Error("distant timer fired during stop") })
	r.Stop()
	r.Stop() // idempotent
	dropped := r.Dropped()
	if r.Post(0, func() { t.Error("post after Stop executed") }) {
		t.Fatal("Post after Stop should report failure")
	}
	if r.Dropped() != dropped+1 {
		t.Fatalf("Dropped() = %d after a refused post, want %d", r.Dropped(), dropped+1)
	}
}

// TestMailboxKeepsOrderAcrossGrowth holds an actor while bursts queue behind
// it, each deeper than the last and the last far past the first ring, so the
// ring doubles with its head at every offset a wrap leaves; the items must
// still run in the order they were posted.
func TestMailboxKeepsOrderAcrossGrowth(t *testing.T) {
	r := New(1)
	defer r.Stop()
	r.StartActors(1, 4096)

	var got []int // appended under the execution lock
	next := 0
	for _, burst := range []int{5, 7, 100, 1000, 4000} {
		gate := make(chan struct{})
		r.Post(0, func() { <-gate }) // holds the actor while the burst queues
		for i := 0; i < burst; i++ {
			v := next
			next++
			if !r.Post(0, func() { got = append(got, v) }) {
				t.Fatalf("post %d of a %d-item burst refused", i, burst)
			}
		}
		done := make(chan struct{})
		r.Post(0, func() { close(done) })
		close(gate)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("a %d-item burst did not drain", burst)
		}
	}
	r.Exec(func() {
		if len(got) != next {
			t.Fatalf("ran %d of %d items", len(got), next)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("item %d ran as the %dth", v, i)
			}
		}
	})
}

// TestMailboxBoundIsExact fills a held actor's mailbox to its bound: every
// post up to the bound is taken, the one at the bound is refused and counted,
// and the taken ones all run.
func TestMailboxBoundIsExact(t *testing.T) {
	const bound = 20 // not a power of two: the ring outgrows it
	r := New(1)
	defer r.Stop()
	r.StartActors(1, bound)

	held, gate := make(chan struct{}), make(chan struct{})
	r.Post(0, func() { close(held); <-gate })
	<-held // the holder has left the box, which is now empty
	ran := 0
	for i := 0; i < bound; i++ {
		if !r.Post(0, func() { ran++ }) {
			t.Fatalf("post %d of %d refused", i, bound)
		}
	}
	if r.Post(0, func() { t.Error("post beyond the bound ran") }) {
		t.Fatal("post at the bound was taken")
	}
	if r.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", r.Dropped())
	}
	close(gate)
	// Room comes back as the actor drains; the box is FIFO, so the item that
	// takes it runs after every earlier one.
	done := make(chan struct{})
	for !r.Post(0, func() { close(done) }) {
		runtime.Gosched()
	}
	<-done
	r.Exec(func() {
		if ran != bound {
			t.Fatalf("ran %d of %d taken posts", ran, bound)
		}
	})
}

// TestMailboxFootprint holds the mailboxes' storage to their backlog: sixteen
// idle actors bounded at 4,096 items add a few KiB of live heap, where a
// channel buffer of the bound would add 32 KiB each.
func TestMailboxFootprint(t *testing.T) {
	r := New(1)
	defer r.Stop()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.StartActors(16, 4096)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<10 {
		t.Fatalf("StartActors(16, 4096) added %d bytes of live heap, want < %d", grew, 64<<10)
	}
}

// TestStopInSameRound is the regression for the batch pop: two timers share a
// deadline, so one wake-up finds both due, and the first stops the second.
// As on sim.Engine, that Stop must return true and the second must not run.
// A sentinel armed third at the same deadline runs after the second would
// have, so waiting for it proves the second did not run.
func TestStopInSameRound(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var second sim.Timer
	var stopped, ran bool // only touched under the execution lock
	sentinel := make(chan struct{})
	r.Exec(func() { // armed under the lock, so none fires before all exist
		at := r.Now().Add(20 * time.Millisecond)
		r.At(at, func() { stopped = second.Stop() })
		second = r.At(at, func() { ran = true })
		r.At(at, func() { close(sentinel) })
	})
	select {
	case <-sentinel:
	case <-time.After(5 * time.Second):
		t.Fatal("sentinel timer did not fire")
	}
	r.Exec(func() {
		if !stopped {
			t.Error("Stop on a timer due in the same round returned false")
		}
		if ran {
			t.Error("timer ran after a Stop from the same round")
		}
		if second.Active() {
			t.Error("stopped timer still reads active")
		}
	})
}

// TestDueTimerRunsBeforeNextItem holds the rule that whoever holds the
// execution lock fires what is due before letting go: a timer an actor item
// arms for now has run when that mailbox's next item starts, without waiting
// for the timer goroutine to wake.
func TestDueTimerRunsBeforeNextItem(t *testing.T) {
	r := New(1)
	defer r.Stop()
	r.StartActors(1, 16)

	var fired bool // only touched under the execution lock
	gate := make(chan struct{})
	seen := make(chan bool, 1)
	r.Post(0, func() { <-gate }) // the next two items queue behind it
	r.Post(0, func() { r.Schedule(0, func() { fired = true }) })
	r.Post(0, func() { seen <- fired })
	close(gate)
	select {
	case ok := <-seen:
		if !ok {
			t.Fatal("a timer armed for now by an item had not run when the next item started")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the mailbox did not drain")
	}
}

// TestExecFiresWhatItArms checks that an Exec returns with the timers it armed
// for now already run.
func TestExecFiresWhatItArms(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var fired atomic.Bool
	r.Exec(func() { r.Schedule(0, func() { fired.Store(true) }) })
	if !fired.Load() {
		t.Fatal("Exec returned before the timer it armed for now ran")
	}
}

// TestDrainFiresInOrder arms three timers due in one drain out of deadline
// order; the drain runs them in (deadline, sequence) order.
func TestDrainFiresInOrder(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var got []int // appended under the execution lock
	add := func(v int) func() { return func() { got = append(got, v) } }
	r.Exec(func() {
		now := r.Now()
		r.At(now, add(2))
		r.At(now.Add(-time.Microsecond), add(1))
		r.At(now, add(3))
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("one drain ran %v, want [1 2 3]", got)
	}
}

// TestStopInSameDrain is TestStopInSameRound on the lock holder's drain: a
// callback stops a timer due in the same drain, gets true, and the stopped
// timer never runs.
func TestStopInSameDrain(t *testing.T) {
	r := New(1)
	defer r.Stop()

	var second sim.Timer
	var stopped, ran, after bool // only touched under the execution lock
	r.Exec(func() {
		now := r.Now()
		r.At(now, func() { stopped = second.Stop() })
		second = r.At(now, func() { ran = true })
		r.At(now, func() { after = true })
	})
	if !after {
		t.Fatal("the drain did not reach the timer behind the stopped one")
	}
	if !stopped {
		t.Error("Stop on a timer due in the same drain returned false")
	}
	if ran {
		t.Error("timer ran after a Stop from the same drain")
	}
}

// TestNoTimerAfterStopBegins arms a timer for now from an actor item that
// then holds the execution lock until Stop has begun: neither the item's own
// drain nor the timer goroutine, which the arming woke, may run it.
func TestNoTimerAfterStopBegins(t *testing.T) {
	r := New(1)
	r.StartActors(1, 16)

	var fired atomic.Bool
	armed, gate := make(chan struct{}), make(chan struct{})
	r.Post(0, func() {
		r.Schedule(0, func() { fired.Store(true) })
		close(armed)
		<-gate
	})
	<-armed
	stopped := make(chan struct{})
	go func() { r.Stop(); close(stopped) }()
	for !r.stopped.Load() {
		runtime.Gosched()
	}
	close(gate)
	<-stopped
	if fired.Load() {
		t.Fatal("a timer ran after Stop had begun")
	}
}
