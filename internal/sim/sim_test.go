package sim

import (
	"testing"
	"time"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := New(1)
	var order []int
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("clock = %v", e.Now())
	}
	if e.Processed() != 3 {
		t.Fatalf("processed = %d", e.Processed())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var fired []Time
	e.Schedule(time.Millisecond, func() {
		fired = append(fired, e.Now())
		e.Schedule(time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("fired %d events", len(fired))
	}
	if fired[0] != Time(time.Millisecond) || fired[1] != Time(2*time.Millisecond) {
		t.Fatalf("fired at %v", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	ran := false
	tm := e.Schedule(time.Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if ran {
		t.Fatal("stopped timer fired")
	}
	if tm.Active() {
		t.Fatal("stopped timer reads active")
	}
}

func TestStopAfterFire(t *testing.T) {
	e := New(1)
	ran := false
	tm := e.Schedule(time.Millisecond, func() { ran = true })
	e.Run()
	if !ran || tm.Active() {
		t.Fatalf("after Run: ran=%v active=%v, want a fired, dead timer", ran, tm.Active())
	}
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var count int
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	e.RunUntil(Time(3 * time.Millisecond))
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("clock = %v", e.Now())
	}
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	e := New(1)
	e.RunFor(10 * time.Millisecond)
	if e.Now() != Time(10*time.Millisecond) {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	New(1).Schedule(-time.Millisecond, func() {})
}

func TestPastSchedulePanics(t *testing.T) {
	e := New(1)
	e.Schedule(time.Millisecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	e.At(0, func() {})
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on nil event fn")
		}
	}()
	New(1).Schedule(0, nil)
}

func TestDeterministicRNG(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.RNG().Int63() != b.RNG().Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := Time(1500 * time.Millisecond)
	if tt.Seconds() != 1.5 {
		t.Fatalf("Seconds = %g", tt.Seconds())
	}
	if tt.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Fatal("Add wrong")
	}
	if tt.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatal("Sub wrong")
	}
}

func TestPendingCount(t *testing.T) {
	e := New(1)
	tm := e.Schedule(time.Millisecond, func() {})
	e.Schedule(2*time.Millisecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	tm.Stop()
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending after run = %d", e.Pending())
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func() {}
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	}
}
