package bcpd

import (
	"testing"

	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/trace"
)

// TestFlightEndsAtTheFirstViolation holds Flight's cut to the recorder's
// lifetime index: a 4-event ring after 10 events keeps events 6..9, a
// violation at event 7 cuts it there, and an end-of-stream violation, one
// whose event has left the ring, or none at all keep the whole window.
func TestFlightEndsAtTheFirstViolation(t *testing.T) {
	c := &Checked{Recorder: trace.NewFlightRecorder(4)}
	for i := range 10 {
		c.Recorder.Emit(trace.Event{Aux: int64(i)})
	}
	for _, tc := range []struct{ seq, last int }{{7, 7}, {9, 9}, {6, 6}, {-1, 9}, {3, 9}} {
		fl := c.Flight([]conformance.Violation{{Seq: tc.seq}, {Seq: 8}})
		if len(fl) != tc.last-5 || fl[0].Aux != 6 || fl[len(fl)-1].Aux != int64(tc.last) {
			t.Errorf("first violation at event %d: flight %v, want events 6..%d", tc.seq, fl, tc.last)
		}
	}
	if fl := c.Flight(nil); len(fl) != 4 {
		t.Errorf("no violation: flight %v, want the whole window", fl)
	}
}
