package trace

// ArenaSink is a flight recorder: a Sink backed by one pre-sized ring of
// fixed-width event records. Emit writes into the ring without allocating;
// once full, it wraps, so the sink keeps the most recent events and Events
// reassembles them in emission order.
//
// Like every Sink, an ArenaSink is driven from the single-threaded
// simulation loop and needs no locking.
type ArenaSink struct {
	buf   []Event
	n     int    // write position: the oldest record once the ring has wrapped
	total uint64 // events emitted over the sink's lifetime
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

// Emit implements Sink.
func (a *ArenaSink) Emit(ev Event) {
	a.total++
	a.buf[a.n] = ev
	if a.n++; a.n == len(a.buf) {
		a.n = 0
	}
}

// Events appends the retained window in emission order to dst and returns
// the result.
func (a *ArenaSink) Events(dst []Event) []Event {
	if a.total >= uint64(len(a.buf)) {
		dst = append(dst, a.buf[a.n:]...)
	}
	return append(dst, a.buf[:a.n]...)
}
