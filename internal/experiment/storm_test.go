package experiment

import (
	"sync"
	"testing"

	"github.com/rtcl/bcp/internal/conformance"
)

// TestStormCyclesComplete drives several full crash→rejoin rounds and
// checks each one restores redundancy (Cycle verifies internally) inside the
// §5 bound of the scenario's own configuration.
func TestStormCyclesComplete(t *testing.T) {
	p := DefaultTraceScenario().Config.Conformance(torusCapacityMbps)
	chk := conformance.New(p)
	s, err := NewStorm(StormConfig{Rate: 100, Seed: 1, Sink: chk})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(6); err != nil {
		t.Fatal(err)
	}
	for _, v := range chk.Finish() {
		t.Errorf("conformance: %v", v)
	}
	if got := chk.GammaChecked(); got < 6 {
		t.Errorf("GammaChecked = %d, want >= 6: the bound is on but was not exercised", got)
	}
	t.Logf("%d recoveries checked, worst Γ/bound %v", chk.GammaChecked(), gammaWorst(p, chk.Recoveries()))
	st := s.Stats()
	if st.ActivationsStarted < 6 {
		t.Errorf("ActivationsStarted = %d, want >= 6", st.ActivationsStarted)
	}
	if st.Rejoins < 6 {
		t.Errorf("Rejoins = %d, want >= 6", st.Rejoins)
	}
	if st.RejoinExpiries != 0 {
		t.Errorf("RejoinExpiries = %d, want 0", st.RejoinExpiries)
	}
	if st.DataDelivered == 0 {
		t.Error("no data delivered across the storm")
	}
}

// TestStormDeterminism runs the same seeded storm twice; every protocol
// counter must come out identical — the pooled timers, frames, and scratch
// buffers must not perturb event order.
func TestStormDeterminism(t *testing.T) {
	run := func() (cycles int, stats [2]interface{}) {
		s, err := NewStorm(StormConfig{Rate: 250, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(4); err != nil {
			t.Fatal(err)
		}
		return s.Cycles(), [2]interface{}{s.Stats(), s.Eng.Now()}
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("storm runs diverged:\n  run1: cycles=%d %+v\n  run2: cycles=%d %+v", c1, s1, c2, s2)
	}
}

// TestStormsInParallel runs independent storms concurrently. Each network
// owns its pools, so this must be race-free (run under -race) and each
// storm must behave exactly as it does alone.
func TestStormsInParallel(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := NewStorm(StormConfig{Rate: 100, Seed: int64(w)})
			if err == nil {
				err = s.Run(3)
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("storm %d: %v", w, err)
		}
	}
}

// TestStormCycleAllocs pins the steady state the harness exists to show:
// after warmup a full crash→switch→repair→rejoin cycle runs on recycled
// timers, frames and scratch (control plane only, so nothing else is in the
// measurement).
func TestStormCycleAllocs(t *testing.T) {
	s, err := NewStorm(StormConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := s.Cycle(); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 1.0; an unpooled timer or frame costs one allocation per
	// message, hundreds per cycle.
	const ceiling = 50
	if allocs > ceiling {
		t.Fatalf("storm cycle = %.1f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("storm cycle = %.1f allocs/op", allocs)
}
