package sim

// TimerHost is the issuing runtime's side of a Timer handle: the two
// queries a handle needs against the arena slot it names. *Engine answers
// them on its own goroutine and internal/realtime behind its timer lock,
// both from a TimerArena, so protocol code holds one Timer type regardless
// of which runtime issued it.
type TimerHost interface {
	// StopTimer cancels the (idx, gen) slot if that generation is still
	// pending, reporting whether the cancellation prevented the fire.
	StopTimer(idx int32, gen uint32) bool
	// TimerActive reports whether the (idx, gen) slot is still pending.
	TimerActive(idx int32, gen uint32) bool
}

// Timer is a handle to a scheduled event: an arena slot index plus the
// generation stamp the slot carried when the event was scheduled. The zero
// Timer is inactive; handles are values and may be copied freely. A Timer
// may be stopped before it fires; stopping a fired or already-stopped timer
// is a no-op.
type Timer struct {
	host TimerHost
	idx  int32
	gen  uint32
}

// MakeTimer builds the handle for a slot TimerArena.Add returned, bound to
// the host that owns the arena.
func MakeTimer(h TimerHost, idx int32, gen uint32) Timer {
	return Timer{host: h, idx: idx, gen: gen}
}

// Stop cancels the timer, unlinking it from the event heap in O(log n). It
// reports whether the cancellation prevented the event from firing.
func (t Timer) Stop() bool {
	return t.host != nil && t.host.StopTimer(t.idx, t.gen)
}

// Active reports whether the timer is still pending: scheduled, not fired,
// and not stopped. The zero Timer is inactive.
func (t Timer) Active() bool {
	return t.host != nil && t.host.TimerActive(t.idx, t.gen)
}

// timerSlot is one arena slot: what a handle names. gen is bumped every time
// the slot is released (fire or stop), invalidating all outstanding handles to
// the retired generation. The ordering key lives in the slot's heap entry.
type timerSlot struct {
	fn  func()
	gen uint32
	pos int32 // index in TimerArena.heap; -1 when not queued
}

// timerEntry is one heap element: the ordering key (at, seq) inline, so
// sifting compares neighbouring entries without loading their slots, and the
// slot it belongs to.
type timerEntry struct {
	at  Time
	seq uint64
	idx int32
}

// before orders heap entries by firing time, then insertion order. seq is
// unique, so this is a total order.
func (e *timerEntry) before(f *timerEntry) bool {
	return e.at < f.at || e.at == f.at && e.seq < f.seq
}

// TimerArena is the timer queue under both clocks: a 4-ary min-heap of
// (deadline, sequence, slot) entries over pooled, generation-stamped slots,
// ordered by deadline and then by insertion (FIFO among equal deadlines).
// Each slot records its entry's heap position, so Stop unlinks it in
// O(log n) and cancelled timers leave no garbage behind, and freed slots are
// recycled through a free list, so steady-state scheduling performs zero
// allocations.
//
// The arena reads no clock and takes no lock: sim.Engine owns one on its
// single goroutine, realtime.Runtime owns one behind its timer lock. The
// zero value is an empty arena.
type TimerArena struct {
	slots []timerSlot
	free  []int32      // recycled slots
	heap  []timerEntry // 4-ary min-heap ordered by (at, seq)
	seq   uint64
}

// Len returns the number of pending timers. Stopped timers leave the queue
// immediately, so the count is exact.
func (a *TimerArena) Len() int { return len(a.heap) }

// Earliest returns the head's deadline; ok is false when nothing is pending.
func (a *TimerArena) Earliest() (at Time, ok bool) {
	if len(a.heap) == 0 {
		return 0, false
	}
	return a.heap[0].at, true
}

// Add queues fn for time at and returns the slot and generation a handle to
// it carries (see MakeTimer). head reports that the new timer is now the
// earliest, which is when a host sleeping toward the old head must wake.
func (a *TimerArena) Add(at Time, fn func()) (idx int32, gen uint32, head bool) {
	return a.AddKeyed(at, a.ReserveSeq(), fn)
}

// ReserveSeq takes the sequence number the next Add would use without
// queueing anything, so a timer queued later under it with AddKeyed orders
// among equal deadlines as if it had been added now.
func (a *TimerArena) ReserveSeq() uint64 {
	seq := a.seq
	a.seq++
	return seq
}

// AddKeyed is Add under a sequence number ReserveSeq handed out. Each
// reserved number may be queued at most once: (at, seq) must stay unique.
func (a *TimerArena) AddKeyed(at Time, seq uint64, fn func()) (idx int32, gen uint32, head bool) {
	if n := len(a.free); n > 0 {
		idx = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		a.slots = append(a.slots, timerSlot{})
		idx = int32(len(a.slots) - 1)
	}
	a.slots[idx].fn = fn
	a.heap = append(a.heap, timerEntry{at: at, seq: seq, idx: idx})
	a.siftUp(len(a.heap) - 1)
	return idx, a.slots[idx].gen, a.heap[0].idx == idx
}

// Stop cancels the (idx, gen) slot if that generation is still pending,
// reporting whether it was.
func (a *TimerArena) Stop(idx int32, gen uint32) bool {
	s := &a.slots[idx]
	if s.gen != gen {
		return false // already fired or stopped
	}
	a.removeAt(int(s.pos))
	a.release(idx)
	return true
}

// Active reports whether the (idx, gen) slot is still pending.
func (a *TimerArena) Active(idx int32, gen uint32) bool {
	return a.slots[idx].gen == gen
}

// Pop removes the head if it is due at or before limit and returns its key
// (deadline and sequence number) and function for the caller to run; ok is
// false when nothing is due. The slot is released before Pop returns: the
// function may re-arm into it, and any handle to the fired generation
// already reads as dead.
func (a *TimerArena) Pop(limit Time) (at Time, seq uint64, fn func(), ok bool) {
	if len(a.heap) == 0 || a.heap[0].at > limit {
		return 0, 0, nil, false
	}
	head := a.heap[0]
	fn = a.slots[head.idx].fn
	a.removeAt(0)
	a.release(head.idx)
	return head.at, head.seq, fn, true
}

// release retires slot idx's current generation and returns the slot to
// the free list.
func (a *TimerArena) release(idx int32) {
	s := &a.slots[idx]
	s.fn = nil
	s.pos = -1
	s.gen++
	a.free = append(a.free, idx)
}

// siftUp restores the heap property from position i toward the root,
// keeping each moved entry's slot position current.
func (a *TimerArena) siftUp(i int) {
	h := a.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		a.slots[h[i].idx].pos = int32(i)
		i = parent
	}
	h[i] = e
	a.slots[e.idx].pos = int32(i)
}

// siftDown restores the heap property from position i toward the leaves.
func (a *TimerArena) siftDown(i int) {
	h := a.heap
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&e) {
			break
		}
		h[i] = h[best]
		a.slots[h[i].idx].pos = int32(i)
		i = best
	}
	h[i] = e
	a.slots[e.idx].pos = int32(i)
}

// removeAt unlinks the heap entry at position i in O(log n). The last entry
// fills the hole and travels whichever way its key says: up if it precedes
// the hole's parent (then it precedes the hole's children too), else down.
func (a *TimerArena) removeAt(i int) {
	n := len(a.heap) - 1
	last := a.heap[n]
	a.heap = a.heap[:n]
	if i == n {
		return
	}
	a.heap[i] = last
	if i > 0 && last.before(&a.heap[(i-1)/4]) {
		a.siftUp(i)
	} else {
		a.siftDown(i)
	}
}
