package experiment

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
)

// Storm is a long-lived recovery-storm harness: one connection on the
// paper's 8x8 torus whose primary channel is crashed, recovered onto the
// backup, repaired, and rejoined — over and over, against the same protocol
// network. After the first cycle every structure involved (timers, RCC
// frames, report fan-out scratch, payload boxes) should be recycled, so a
// cycle measures the steady-state cost of one full recovery, not the cost
// of warming up allocators.
//
// Each cycle: crash one link of the current primary (rotating the position
// so every hop gets exercised), run long enough for the failure reports to
// activate and promote the backup, repair the link, then run until the
// rejoin restores the old primary as the new backup. The roles ping-pong
// between the two disjoint paths from cycle to cycle.
type Storm struct {
	*TraceRun // the built trace scenario: Eng, Net (with its checker), Conn

	cycles int
}

// StormConfig parameterizes NewStorm. The zero value is usable.
type StormConfig struct {
	Rate float64 // data messages/second; 0 runs the control plane only
	Seed int64   // engine seed; same seed, same run
}

// Cycle phase lengths: the crash phase covers detection, reports, and
// activation (all well under 200 ms on the torus); the repair phase covers
// the rejoin probe retransmitting through the healed link and the rejoin
// confirmation walking back (well under 800 ms).
const (
	stormCrashPhase  = sim.Duration(200 * time.Millisecond)
	stormRepairPhase = sim.Duration(800 * time.Millisecond)
)

// NewStorm builds the trace scenario's network — two disjoint 0→36 paths on
// the torus, one primary and one degree-1 backup, its rejoin timers — and
// leaves the failing to Cycle.
func NewStorm(cfg StormConfig) (*Storm, error) {
	s := DefaultTraceScenario()
	s.Seed = cfg.Seed
	s.Rate = cfg.Rate
	run, err := s.Build()
	if err != nil {
		return nil, err
	}
	return &Storm{TraceRun: run}, nil
}

// Cycle runs one crash→switch→repair→rejoin round and verifies it restored
// full redundancy: the backup was promoted to primary and the crashed
// channel rejoined as the new backup.
func (s *Storm) Cycle() error {
	prim := s.Conn.Primary
	if prim == nil {
		return fmt.Errorf("experiment: storm cycle %d: connection has no primary", s.cycles)
	}
	if len(s.Conn.Backups) == 0 {
		return fmt.Errorf("experiment: storm cycle %d: connection has no backup", s.cycles)
	}
	links := prim.Path.Links()
	fail := links[s.cycles%len(links)]

	s.Net.FailLink(fail)
	s.Eng.RunFor(stormCrashPhase)
	if s.Conn.Primary == prim {
		return fmt.Errorf("experiment: storm cycle %d: backup was not promoted", s.cycles)
	}
	s.Net.RepairLink(fail)
	s.Eng.RunFor(stormRepairPhase)
	if len(s.Conn.Backups) == 0 {
		return fmt.Errorf("experiment: storm cycle %d: rejoin did not restore the backup", s.cycles)
	}
	s.cycles++
	return nil
}

// Run executes n cycles, stopping at the first failure.
func (s *Storm) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Cycle(); err != nil {
			return err
		}
	}
	return nil
}

// TestStormCyclesComplete drives several full crash→rejoin rounds and
// checks each one restores redundancy (Cycle verifies internally) inside the
// §5 bound of the scenario's own configuration.
func TestStormCyclesComplete(t *testing.T) {
	s, err := NewStorm(StormConfig{Rate: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	chk := s.Net.Checker
	if err := s.Run(6); err != nil {
		t.Fatal(err)
	}
	for _, v := range chk.Finish() {
		t.Errorf("conformance: %v", v)
	}
	if got := chk.GammaChecked(); got < 6 {
		t.Errorf("GammaChecked = %d, want >= 6: the bound is on but was not exercised", got)
	}
	t.Logf("%d recoveries checked, worst Γ/bound %v", chk.GammaChecked(), gammaWorst(chk))
	st := s.Net.Stats()
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
		return s.cycles, [2]interface{}{s.Net.Stats(), s.Eng.Now()}
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
// measurement). The cycle is a checked one: the conformance checker and the
// flight recorder see every event, as in every Storm.
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
	// Measured 2.0 with the checker and recorder on; an unpooled timer or
	// frame costs one allocation per message, hundreds per cycle.
	const ceiling = 50
	if allocs > ceiling {
		t.Fatalf("storm cycle = %.1f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("storm cycle = %.1f allocs/op", allocs)
}
