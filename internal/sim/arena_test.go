package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestMidHeapCancelShrinksQueue is the regression test for the lazy-cancel
// leak: cancelling a timer that is not at the heap top must remove it from
// the queue immediately, not leave a tombstone to be reaped at pop time.
func TestMidHeapCancelShrinksQueue(t *testing.T) {
	e := New(1)
	var timers []Timer
	for i := 1; i <= 100; i++ {
		timers = append(timers, e.Schedule(time.Duration(i)*time.Millisecond, func() {}))
	}
	if e.Pending() != 100 {
		t.Fatalf("pending = %d, want 100", e.Pending())
	}
	// Cancel every other timer from the middle of the schedule — none of
	// these are the heap minimum.
	cancelled := 0
	for i := 10; i < 90; i += 2 {
		if !timers[i].Stop() {
			t.Fatalf("Stop on pending timer %d returned false", i)
		}
		cancelled++
	}
	if got, want := e.Pending(), 100-cancelled; got != want {
		t.Fatalf("pending after mid-heap cancels = %d, want %d", got, want)
	}
	fired := 0
	for e.Step() {
		fired++
	}
	_ = fired
	if got := int(e.Processed()); got != 100-cancelled {
		t.Fatalf("processed = %d, want %d", got, 100-cancelled)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after drain = %d", e.Pending())
	}
}

// TestSlotRecycling verifies the arena reuses freed slots instead of
// growing, and that handles to retired generations read as dead.
func TestSlotRecycling(t *testing.T) {
	e := New(1)
	first := e.Schedule(time.Millisecond, func() {})
	e.Step()
	if len(e.timers.slots) != 1 {
		t.Fatalf("slots = %d, want 1", len(e.timers.slots))
	}
	second := e.Schedule(time.Millisecond, func() {})
	if len(e.timers.slots) != 1 {
		t.Fatalf("slot not recycled: slots = %d", len(e.timers.slots))
	}
	if first.Active() {
		t.Fatal("fired handle reads active after slot reuse")
	}
	if !second.Active() {
		t.Fatal("fresh handle on recycled slot not active")
	}
	if first.Stop() {
		t.Fatal("Stop through a stale handle cancelled the new generation")
	}
	if !second.Stop() {
		t.Fatal("fresh handle failed to stop")
	}
	if second.Active() {
		t.Fatal("stopped handle reads active")
	}
}

// TestZeroTimerInert pins the zero-value handle's behavior: protocol code
// stores Timer fields by value and relies on the zero value being inert.
func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop returned true")
	}
	if tm.Active() {
		t.Fatal("zero Timer is active")
	}
}

// TestSteadyStateSchedulingAllocFree is the arena's alloc guard: once the
// slots and heap are warm, schedule+fire and schedule+cancel
// cycles must not allocate.
func TestSteadyStateSchedulingAllocFree(t *testing.T) {
	e := New(1)
	fn := func() {}
	// Warm the arena to a realistic working-set size.
	var warm []Timer
	for i := 0; i < 64; i++ {
		warm = append(warm, e.Schedule(time.Duration(i+1)*time.Microsecond, fn))
	}
	for _, tm := range warm {
		tm.Stop()
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("schedule+fire allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a := e.Schedule(time.Microsecond, fn)
		b := e.Schedule(2*time.Microsecond, fn)
		c := e.Schedule(3*time.Microsecond, fn)
		b.Stop() // mid-heap cancel
		a.Stop()
		c.Stop()
	}); n != 0 {
		t.Fatalf("schedule+cancel allocates %v/op, want 0", n)
	}
}

// --- differential oracle ---------------------------------------------------

// oracleTimer and oracleHeap are a container/heap queue with lazy deletion:
// the reference semantics for TimerArena, which both clocks run on.
type oracleTimer struct {
	at      Time
	seq     uint64
	id      int
	stopped bool
	fired   bool
	index   int
}

type oracleHeap []*oracleTimer

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	t := x.(*oracleTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

type oracleQueue struct {
	events oracleHeap
	seq    uint64
}

func (o *oracleQueue) add(at Time, id int) *oracleTimer {
	t := &oracleTimer{at: at, seq: o.seq, id: id}
	o.seq++
	heap.Push(&o.events, t)
	return t
}

// head discards stopped tombstones and returns the next live timer, or nil.
func (o *oracleQueue) head() *oracleTimer {
	for len(o.events) > 0 && o.events[0].stopped {
		heap.Pop(&o.events)
	}
	if len(o.events) == 0 {
		return nil
	}
	return o.events[0]
}

// pop removes and returns the live head if it is due at or before limit.
func (o *oracleQueue) pop(limit Time) *oracleTimer {
	t := o.head()
	if t == nil || t.at > limit {
		return nil
	}
	heap.Pop(&o.events)
	t.fired = true
	return t
}

func (o *oracleQueue) live() int {
	n := 0
	for _, t := range o.events {
		if !t.stopped {
			n++
		}
	}
	return n
}

// TestDifferentialVsContainerHeap drives a TimerArena and the container/heap
// oracle through identical random add / stop / pop sequences, with colliding
// deadlines and same-deadline bursts so equal-deadline FIFO is exercised, and
// requires the same answer from every call: which timer Pop returns and when
// it refuses, Stop's result, Earliest, Len, and Add's report that the new
// timer became the head (the wall-clock runtime's wake signal).
func TestDifferentialVsContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a TimerArena
		o := &oracleQueue{}
		var now Time   // deadline of the last timer popped, as a host's clock
		var popped int // id of the timer whose function ran last

		type pair struct {
			idx    int32
			gen    uint32
			oracle *oracleTimer
		}
		var live []pair
		nextID := 0
		add := func(op int, at Time) {
			id := nextID
			nextID++
			wantHead := true
			if h := o.head(); h != nil && h.at <= at {
				wantHead = false
			}
			idx, gen, head := a.Add(at, func() { popped = id })
			if head != wantHead {
				t.Fatalf("seed %d op %d: Add at %v reports head=%v, oracle %v", seed, op, at, head, wantHead)
			}
			live = append(live, pair{idx, gen, o.add(at, id)})
		}
		pop := func(op int, limit Time) bool {
			at, fn, ok := a.Pop(limit)
			want := o.pop(limit)
			if ok != (want != nil) {
				t.Fatalf("seed %d op %d: Pop(%v) ok=%v, oracle %v", seed, op, limit, ok, want)
			}
			if !ok {
				return false
			}
			fn()
			if popped != want.id || at != want.at {
				t.Fatalf("seed %d op %d: popped timer %d at %v, oracle %d at %v", seed, op, popped, at, want.id, want.at)
			}
			now = at
			return true
		}

		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(12); {
			case r < 5: // add; coarse deadlines force ties
				add(op, now.Add(time.Duration(rng.Intn(8))*time.Millisecond))
			case r < 7: // a burst at one deadline
				at := now.Add(time.Duration(rng.Intn(8)) * time.Millisecond)
				for k := 1 + rng.Intn(6); k > 0; k-- {
					add(op, at)
				}
			case r < 9: // pop the head whatever its deadline
				pop(op, math.MaxInt64)
			case r < 10: // pop only what a clock reading has made due
				pop(op, now.Add(time.Duration(rng.Intn(4))*time.Millisecond))
			default: // stop a random timer: pending (often mid-heap), fired or stopped
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				p := live[i]
				want := !p.oracle.stopped && !p.oracle.fired
				if got := a.Active(p.idx, p.gen); got != want {
					t.Fatalf("seed %d op %d: Active = %v, oracle %v", seed, op, got, want)
				}
				if got := a.Stop(p.idx, p.gen); got != want {
					t.Fatalf("seed %d op %d: Stop = %v, oracle %v", seed, op, got, want)
				}
				p.oracle.stopped = true
				if rng.Intn(2) == 0 { // else keep the dead handle for a later stale Stop
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			if a.Len() != o.live() {
				t.Fatalf("seed %d op %d: Len %d vs oracle %d", seed, op, a.Len(), o.live())
			}
			at, ok := a.Earliest()
			if h := o.head(); ok != (h != nil) || ok && at != h.at {
				t.Fatalf("seed %d op %d: Earliest = %v, %v; oracle head %v", seed, op, at, ok, h)
			}
		}
		for pop(-1, math.MaxInt64) { // drain both, comparing the full firing order
		}
		if a.Len() != 0 {
			t.Fatalf("seed %d: %d timers left after drain", seed, a.Len())
		}
	}
}

// TestDifferentialFIFOOrder checks firing *identity* order, not just
// times: interleaved schedules at identical deadlines must fire in exact
// scheduling order even after unrelated cancellations reshuffle the heap.
func TestDifferentialFIFOOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := New(1)
	var want, got []int
	var cancellable []Timer
	id := 0
	for round := 0; round < 50; round++ {
		at := e.Now().Add(time.Duration(rng.Intn(3)) * time.Millisecond)
		for j := 0; j < 4; j++ {
			myID := id
			id++
			e.At(at, func() { got = append(got, myID) })
			want = append(want, myID)
		}
		// Noise: schedule-and-cancel far-future timers to churn the heap.
		for j := 0; j < 3; j++ {
			cancellable = append(cancellable,
				e.Schedule(time.Duration(10+rng.Intn(50))*time.Millisecond, func() { t.Error("cancelled timer fired") }))
		}
		for _, tm := range cancellable {
			tm.Stop()
		}
		cancellable = cancellable[:0]
		e.Run()
	}
	// want is in scheduling order; within each equal-deadline batch the
	// engine must preserve it, and batches fire in time order. Since each
	// round runs to quiescence, global order equals scheduling order.
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order diverged at %d: got %v", i, got[i])
		}
	}
}

// BenchmarkTimerCancelMidHeap measures the O(log n) cancel path.
func BenchmarkTimerCancelMidHeap(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func() {}
	// Keep a standing population so cancels are genuinely mid-heap.
	var standing []Timer
	for i := 0; i < 1024; i++ {
		standing = append(standing, e.Schedule(time.Duration(i+1)*time.Second, fn))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.Schedule(time.Duration(500+i%100)*time.Millisecond, fn)
		tm.Stop()
	}
	b.StopTimer()
	for _, tm := range standing {
		tm.Stop()
	}
}
