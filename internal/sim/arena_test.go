package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"strconv"
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
	if n := testing.AllocsPerRun(1000, func() {
		k := e.ReserveKey(e.Now().Add(time.Microsecond))
		e.AtKey(k, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("reserve+keyed add+fire allocates %v/op, want 0", n)
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
	last   *oracleTimer // the timer popped last; nil before the first
}

func (o *oracleQueue) add(at Time, id int) *oracleTimer {
	return o.addKeyed(at, o.reserve(), id)
}

// reserve hands out the sequence number the next add would take.
func (o *oracleQueue) reserve() uint64 {
	o.seq++
	return o.seq - 1
}

// addKeyed queues a timer under a reserved sequence number: it orders by
// that number, not by when it was queued.
func (o *oracleQueue) addKeyed(at Time, seq uint64, id int) *oracleTimer {
	t := &oracleTimer{at: at, seq: seq, id: id}
	heap.Push(&o.events, t)
	return t
}

// fired reports whether a timer keyed (at, seq) would already have run: the
// oracle has popped a timer at or after that key.
func (o *oracleQueue) fired(at Time, seq uint64) bool {
	return o.last != nil && (at < o.last.at || at == o.last.at && seq <= o.last.seq)
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
	o.last = t
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

// checkHeap asserts the arena's structural invariants: heap order over
// (at, seq), every entry's slot pointing back at its position, every free
// slot unqueued, and every slot either queued or free.
func checkHeap(t testing.TB, a *TimerArena) {
	t.Helper()
	for i, e := range a.heap {
		if i > 0 {
			p := a.heap[(i-1)/4]
			if p.at > e.at || p.at == e.at && p.seq > e.seq {
				t.Fatalf("heap[%d] (%v, %d) precedes its parent heap[%d] (%v, %d)", i, e.at, e.seq, (i-1)/4, p.at, p.seq)
			}
		}
		if pos := a.slots[e.idx].pos; pos != int32(i) {
			t.Fatalf("heap[%d] holds slot %d, whose pos is %d", i, e.idx, pos)
		}
	}
	for _, idx := range a.free {
		if pos := a.slots[idx].pos; pos != -1 {
			t.Fatalf("free slot %d has pos %d, want -1", idx, pos)
		}
	}
	if len(a.heap)+len(a.free) != len(a.slots) {
		t.Fatalf("%d queued + %d free != %d slots", len(a.heap), len(a.free), len(a.slots))
	}
}

// arenaDiff drives a TimerArena and the container/heap oracle through the
// same add / reserve / keyed add / stop / pop calls and requires the same
// answer from every one: which timer Pop returns (deadline and sequence
// number) and when it refuses, Stop's and Active's results, Earliest, Len,
// the reserved sequence numbers, and Add's and AddKeyed's report that the
// new timer became the head (the wall-clock runtime's wake signal). Handles
// are kept after they fire or stop, so a later Stop through one is a
// stale-handle probe. A reservation is queued later only if its key has not
// fired, which is judged from the key Pop last reported (as sim.Engine
// does) and must agree with the oracle's popped order.
type arenaDiff struct {
	t        testing.TB
	name     string
	op       int
	a        TimerArena
	o        oracleQueue
	now      Time   // deadline of the last timer popped, as a host's clock
	nowSeq   uint64 // its sequence number
	anyPop   bool
	popped   int // id of the timer whose function ran last
	handles  []arenaHandle
	reserved []reservedKey // reserved, not yet queued
}

type reservedKey struct {
	at  Time
	seq uint64
}

type arenaHandle struct {
	idx    int32
	gen    uint32
	oracle *oracleTimer
}

func (d *arenaDiff) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%s op %d: "+format, append([]any{d.name, d.op}, args...)...)
}

func (d *arenaDiff) add(at Time) {
	d.t.Helper()
	id := len(d.handles)
	wantHead := true
	if h := d.o.head(); h != nil && h.at <= at {
		wantHead = false
	}
	idx, gen, head := d.a.Add(at, func() { d.popped = id })
	if head != wantHead {
		d.fatalf("Add at %v reports head=%v, oracle %v", at, head, wantHead)
	}
	d.handles = append(d.handles, arenaHandle{idx, gen, d.o.add(at, id)})
}

// reserve takes a sequence number for a timer at at, to be queued later.
func (d *arenaDiff) reserve(at Time) {
	d.t.Helper()
	seq := d.a.ReserveSeq()
	if want := d.o.reserve(); seq != want {
		d.fatalf("ReserveSeq = %d, oracle %d", seq, want)
	}
	d.reserved = append(d.reserved, reservedKey{at, seq})
}

// queueReserved queues reservation i under its key, or, if the key has
// already fired, checks that the oracle agrees and forgets it.
func (d *arenaDiff) queueReserved(i int) {
	d.t.Helper()
	r := d.reserved[i]
	d.reserved = append(d.reserved[:i], d.reserved[i+1:]...)
	fired := d.anyPop && (r.at < d.now || r.at == d.now && r.seq <= d.nowSeq)
	if want := d.o.fired(r.at, r.seq); fired != want {
		d.fatalf("key (%v, %d) fired=%v, oracle %v", r.at, r.seq, fired, want)
	}
	if fired {
		return
	}
	id := len(d.handles)
	wantHead := true
	if h := d.o.head(); h != nil && (h.at < r.at || h.at == r.at && h.seq < r.seq) {
		wantHead = false
	}
	idx, gen, head := d.a.AddKeyed(r.at, r.seq, func() { d.popped = id })
	if head != wantHead {
		d.fatalf("AddKeyed at (%v, %d) reports head=%v, oracle %v", r.at, r.seq, head, wantHead)
	}
	d.handles = append(d.handles, arenaHandle{idx, gen, d.o.addKeyed(r.at, r.seq, id)})
}

// pop pops at limit from both queues, runs the arena's function and checks
// it is the oracle's timer, reporting whether one was due.
func (d *arenaDiff) pop(limit Time) bool {
	d.t.Helper()
	at, seq, fn, ok := d.a.Pop(limit)
	want := d.o.pop(limit)
	if ok != (want != nil) {
		d.fatalf("Pop(%v) ok=%v, oracle %v", limit, ok, want)
	}
	if !ok {
		return false
	}
	fn()
	if d.popped != want.id || at != want.at || seq != want.seq {
		d.fatalf("popped timer %d at (%v, %d), oracle %d at (%v, %d)", d.popped, at, seq, want.id, want.at, want.seq)
	}
	d.now, d.nowSeq, d.anyPop = at, seq, true
	return true
}

// stop stops handle i, which may be pending (often mid-heap), fired or
// already stopped.
func (d *arenaDiff) stop(i int) {
	d.t.Helper()
	h := d.handles[i]
	want := !h.oracle.stopped && !h.oracle.fired
	if got := d.a.Active(h.idx, h.gen); got != want {
		d.fatalf("Active = %v, oracle %v", got, want)
	}
	if got := d.a.Stop(h.idx, h.gen); got != want {
		d.fatalf("Stop = %v, oracle %v", got, want)
	}
	h.oracle.stopped = true
}

// check ends an op: the queues agree on Len and Earliest and the arena's
// invariants hold.
func (d *arenaDiff) check() {
	d.t.Helper()
	if d.a.Len() != d.o.live() {
		d.fatalf("Len %d vs oracle %d", d.a.Len(), d.o.live())
	}
	at, ok := d.a.Earliest()
	if h := d.o.head(); ok != (h != nil) || ok && at != h.at {
		d.fatalf("Earliest = %v, %v; oracle head %v", at, ok, h)
	}
	checkHeap(d.t, &d.a)
	d.op++
}

// drain pops both queues dry, comparing the full firing order.
func (d *arenaDiff) drain() {
	d.t.Helper()
	for d.pop(math.MaxInt64) {
		d.check()
	}
	if d.a.Len() != 0 {
		d.fatalf("%d timers left after drain", d.a.Len())
	}
}

// TestDifferentialVsContainerHeap drives random add / reserve / keyed add /
// stop / pop sequences through arenaDiff, with colliding deadlines and
// same-deadline bursts so equal-deadline FIFO is exercised, and reservations
// queued late among timers added after them.
func TestDifferentialVsContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := &arenaDiff{t: t, name: fmt.Sprintf("seed %d", seed)}
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(15); {
			case r < 5: // add; coarse deadlines force ties
				d.add(d.now.Add(time.Duration(rng.Intn(8)) * time.Millisecond))
			case r < 7: // a burst at one deadline
				at := d.now.Add(time.Duration(rng.Intn(8)) * time.Millisecond)
				for k := 1 + rng.Intn(6); k > 0; k-- {
					d.add(at)
				}
			case r < 9: // pop the head whatever its deadline
				d.pop(math.MaxInt64)
			case r < 10: // pop only what a clock reading has made due
				d.pop(d.now.Add(time.Duration(rng.Intn(4)) * time.Millisecond))
			case r < 12: // stop a random handle: pending, fired or stopped
				if len(d.handles) > 0 {
					d.stop(rng.Intn(len(d.handles)))
				}
			case r < 13: // reserve a key to queue later
				d.reserve(d.now.Add(time.Duration(rng.Intn(8)) * time.Millisecond))
			default: // queue a reservation, or find it has fired
				if len(d.reserved) > 0 {
					d.queueReserved(rng.Intn(len(d.reserved)))
				}
			}
			d.check()
		}
		d.drain()
	}
}

// FuzzTimerArena is TestDifferentialVsContainerHeap with the op sequence
// read from the input, two bytes an op: add at now plus 0–15 ms, stop any
// handle ever issued (live, fired or stale), pop at now plus 0–7 ms, pop
// whatever is due, reserve a key at now plus 0–15 ms, or queue any
// outstanding reservation under its key.
func FuzzTimerArena(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 2, 1, 1, 0, 9, 3, 0, 1, 0, 0, 5, 2, 7})
	f.Add([]byte{4, 2, 0, 2, 4, 2, 0, 1, 5, 1, 3, 0, 5, 0, 3, 0, 4, 0, 3, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := &arenaDiff{t: t, name: "fuzz"}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 6 {
			case 0:
				d.add(d.now.Add(time.Duration(arg%16) * time.Millisecond))
			case 1:
				if len(d.handles) > 0 {
					d.stop(arg % len(d.handles))
				}
			case 2:
				d.pop(d.now.Add(time.Duration(arg%8) * time.Millisecond))
			case 3:
				d.pop(math.MaxInt64)
			case 4:
				d.reserve(d.now.Add(time.Duration(arg%16) * time.Millisecond))
			case 5:
				if len(d.reserved) > 0 {
					d.queueReserved(arg % len(d.reserved))
				}
			}
			d.check()
		}
		d.drain()
	})
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

// BenchmarkTimerHold is storm_node_crash's timer load in miniature: a
// standing population at the storm's mean (171) and peak (802) pending
// events, each fire re-arming one timer with the storm's delay mix rounded to
// six delays (500 µs 41 %, 40 µs 36 %, 10 ms 7 %, 20 ms 4 %, immediate 4 %,
// the remaining 8 % at 2 ms), so an op is one Pop and one Add at the heap
// depth the workload runs at.
func BenchmarkTimerHold(b *testing.B) {
	var mix []time.Duration
	for _, m := range []struct {
		d   time.Duration
		pct int
	}{
		{500 * time.Microsecond, 41}, {40 * time.Microsecond, 36}, {2 * time.Millisecond, 8},
		{10 * time.Millisecond, 7}, {20 * time.Millisecond, 4}, {0, 4},
	} {
		for i := 0; i < m.pct; i++ {
			mix = append(mix, m.d)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	for _, n := range []int{171, 802} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			e := New(1)
			k := 0
			var rearm func()
			rearm = func() {
				e.Schedule(mix[k%len(mix)], rearm)
				k++
			}
			for i := 0; i < n; i++ {
				rearm()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
