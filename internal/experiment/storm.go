package experiment

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/trace"
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
	*TraceRun // the built trace scenario: Eng, Mgr, Net, Conn

	cycles int
}

// StormConfig parameterizes NewStorm. The zero value is usable.
type StormConfig struct {
	Rate float64    // data messages/second; 0 runs the control plane only
	Seed int64      // engine seed; same seed, same run
	Sink trace.Sink // optional event sink
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
	s.Config.Sink = cfg.Sink
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

// Cycles returns the number of completed cycles.
func (s *Storm) Cycles() int { return s.cycles }

// Stats returns the protocol counters accumulated so far.
func (s *Storm) Stats() bcpd.Stats { return s.Net.Stats() }
