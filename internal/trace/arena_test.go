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
	for i := 0; i < 11; i++ {
		a.Emit(ev(i))
		got, want := a.Events(nil), min(i+1, 4)
		for j := range want {
			if len(got) != want || got[j].Aux != int64(i+1-want+j) {
				t.Fatalf("after %d events: window %+v, want aux %d..%d", i+1, got, i+1-want, i)
			}
		}
	}
	if a.Total() != 11 {
		t.Fatalf("total = %d", a.Total())
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
