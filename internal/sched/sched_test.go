package sched

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
)

func TestLinkSerializesAtCapacity(t *testing.T) {
	eng := sim.New(1)
	var arrivals []sim.Time
	// 1 Mbps link, no propagation: a 1250-byte packet takes 10 ms.
	l := NewLink(eng, 1, 0, 0, func(Packet) { arrivals = append(arrivals, eng.Now()) })
	for i := 0; i < 3; i++ {
		l.Enqueue(Packet{Class: ClassRealTime, Size: 1250})
	}
	for eng.Step() {
	}
	want := []sim.Time{
		sim.Time(10 * time.Millisecond),
		sim.Time(20 * time.Millisecond),
		sim.Time(30 * time.Millisecond),
	}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrival %d at %v, want %v", i, arrivals[i], want[i])
		}
	}
	st := l.Stats()
	if st.Delivered != 3 || st.Enqueued != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusyTime != sim.Duration(30*time.Millisecond) {
		t.Fatalf("busy time = %v", st.BusyTime)
	}
}

func TestLinkPropagationDelayPipelines(t *testing.T) {
	eng := sim.New(1)
	var arrivals []sim.Time
	l := NewLink(eng, 1, 5*time.Millisecond, 0, func(Packet) { arrivals = append(arrivals, eng.Now()) })
	l.Enqueue(Packet{Class: ClassRealTime, Size: 1250})
	l.Enqueue(Packet{Class: ClassRealTime, Size: 1250})
	for eng.Step() {
	}
	// Transmission 10ms each, propagation 5ms: arrivals at 15 and 25 ms —
	// propagation overlaps the next transmission.
	if arrivals[0] != sim.Time(15*time.Millisecond) || arrivals[1] != sim.Time(25*time.Millisecond) {
		t.Fatalf("arrivals = %v", arrivals)
	}
}

func TestPriorityOrdering(t *testing.T) {
	eng := sim.New(1)
	var order []Class
	l := NewLink(eng, 1, 0, 0, func(p Packet) { order = append(order, p.Class) })
	// Fill while busy: first packet occupies the link, then best-effort and
	// control queue up; control must jump ahead.
	l.Enqueue(Packet{Class: ClassRealTime, Size: 1250})
	l.Enqueue(Packet{Class: ClassBestEffort, Size: 1250})
	l.Enqueue(Packet{Class: ClassBestEffort, Size: 1250})
	l.Enqueue(Packet{Class: ClassControl, Size: 125})
	for eng.Step() {
	}
	want := []Class{ClassRealTime, ClassControl, ClassBestEffort, ClassBestEffort}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLinkDownDropsEverything(t *testing.T) {
	eng := sim.New(1)
	delivered := 0
	l := NewLink(eng, 1, 0, 0, func(Packet) { delivered++ })
	l.Enqueue(Packet{Class: ClassRealTime, Size: 1250})
	l.Enqueue(Packet{Class: ClassRealTime, Size: 1250})
	// Fail the link mid-transmission of the first packet.
	eng.Schedule(5*time.Millisecond, func() { l.SetDown(true) })
	// More traffic while down.
	eng.Schedule(20*time.Millisecond, func() { l.Enqueue(Packet{Class: ClassRealTime, Size: 1250}) })
	for eng.Step() {
	}
	if delivered != 0 {
		t.Fatalf("delivered = %d over a failed link", delivered)
	}
	st := l.Stats()
	if st.DroppedDown != 3 {
		t.Fatalf("dropped = %d, want 3 (in-flight + queued + late)", st.DroppedDown)
	}
}

func TestLinkRepairResumesService(t *testing.T) {
	eng := sim.New(1)
	delivered := 0
	l := NewLink(eng, 1, 0, 0, func(Packet) { delivered++ })
	l.SetDown(true)
	l.Enqueue(Packet{Class: ClassRealTime, Size: 125})
	eng.Schedule(time.Millisecond, func() {
		l.SetDown(false)
		l.Enqueue(Packet{Class: ClassRealTime, Size: 125})
	})
	for eng.Step() {
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
}

func TestQueueBound(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, 1, 0, 2, func(Packet) {})
	for i := 0; i < 5; i++ {
		l.Enqueue(Packet{Class: ClassBestEffort, Size: 1250})
	}
	// One transmitting + 2 queued; 2 dropped.
	if st := l.Stats(); st.DroppedQueue != 2 {
		t.Fatalf("dropped = %d, want 2", st.DroppedQueue)
	}
	for eng.Step() {
	}
}

func TestEnqueuePanics(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, 1, 0, 0, func(Packet) {})
	for _, p := range []Packet{
		{Class: numClasses, Size: 10},
		{Class: ClassControl, Size: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", p)
				}
			}()
			l.Enqueue(p)
		}()
	}
}

func TestClassString(t *testing.T) {
	if ClassControl.String() != "control" || Class(9).String() != "class(9)" {
		t.Fatal("class strings wrong")
	}
}
