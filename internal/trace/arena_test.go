package trace

import (
	"testing"

	"github.com/rtcl/bcp/internal/sim"
)

func ev(i int) Event {
	return Event{At: sim.Time(i), Kind: KindClaim, Aux: int64(i)}
}

func TestFlightRecorderWraps(t *testing.T) {
	a := NewFlightRecorder(4)
	for i := 0; i < 3; i++ {
		a.Emit(ev(i))
	}
	if got := a.Events(nil); len(got) != 3 || got[0].Aux != 0 || got[2].Aux != 2 {
		t.Fatalf("pre-wrap events = %+v", got)
	}
	for i := 3; i < 11; i++ {
		a.Emit(ev(i))
	}
	if a.Len() != 4 {
		t.Fatalf("len = %d, want 4", a.Len())
	}
	got := a.Events(nil)
	if len(got) != 4 {
		t.Fatalf("events = %d, want 4", len(got))
	}
	for i, e := range got {
		if e.Aux != int64(7+i) {
			t.Fatalf("window wrong at %d: %+v (want aux %d)", i, e, 7+i)
		}
	}
	if a.Total() != 11 {
		t.Fatalf("total = %d", a.Total())
	}
	if a.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", a.Dropped())
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("len after reset = %d", a.Len())
	}
	a.Emit(ev(99))
	if got := a.Events(nil); len(got) != 1 || got[0].Aux != 99 {
		t.Fatalf("post-reset events = %+v", got)
	}
}

// TestArenaSinkEmitAllocFree is the alloc guard: steady-state emission,
// wrap boundary included, must not allocate.
func TestArenaSinkEmitAllocFree(t *testing.T) {
	ring := NewFlightRecorder(256)
	if n := testing.AllocsPerRun(1000, func() { ring.Emit(ev(1)) }); n != 0 {
		t.Fatalf("ring Emit allocates %v/op", n)
	}
}

func TestArenaSinkPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero-cap-ring": func() { NewFlightRecorder(0) },
		"negative-ring": func() { NewFlightRecorder(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
