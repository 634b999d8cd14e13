package trace

// ArenaSink is a flight recorder: a Sink backed by one pre-sized ring of
// fixed-width event records. Emit writes into the ring without allocating;
// once full, it wraps, so the sink keeps the most recent events and Events
// reassembles them in emission order.
//
// Like every Sink, an ArenaSink is driven from the single-threaded
// simulation loop and needs no locking.
type ArenaSink struct {
	buf     []Event
	n       int  // write position; valid records when not wrapped
	wrapped bool // buf is full and n is the oldest record

	total   uint64 // events emitted over the sink's lifetime
	dropped uint64 // events overwritten before being read
}

// NewFlightRecorder returns an arena that retains the most recent capacity
// events.
func NewFlightRecorder(capacity int) *ArenaSink {
	if capacity <= 0 {
		panic("trace: non-positive arena capacity")
	}
	return &ArenaSink{buf: make([]Event, capacity)}
}

// Total returns the number of events emitted over the sink's lifetime.
func (a *ArenaSink) Total() uint64 { return a.total }

// Dropped returns how many events the ring has overwritten.
func (a *ArenaSink) Dropped() uint64 { return a.dropped }

// Len returns the number of events currently buffered.
func (a *ArenaSink) Len() int {
	if a.wrapped {
		return len(a.buf)
	}
	return a.n
}

// Emit implements Sink.
func (a *ArenaSink) Emit(ev Event) {
	a.total++
	if a.wrapped {
		a.dropped++
	}
	a.buf[a.n] = ev
	a.n++
	if a.n == len(a.buf) {
		a.n = 0
		a.wrapped = true
	}
}

// Events appends the retained window in emission order to dst and returns
// the result.
func (a *ArenaSink) Events(dst []Event) []Event {
	if a.wrapped {
		dst = append(dst, a.buf[a.n:]...)
	}
	return append(dst, a.buf[:a.n]...)
}

// Reset discards buffered events (and the wrap state), keeping the arena
// and lifetime counters.
func (a *ArenaSink) Reset() {
	a.n = 0
	a.wrapped = false
}
