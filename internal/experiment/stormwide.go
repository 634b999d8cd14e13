package experiment

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/workload"
)

// StormWide is the mass-failure counterpart of Storm: instead of crashing
// one link of one connection, each cycle crashes an entire transit node of a
// heavily loaded network — hundreds of channels fail at once, their failure
// reports and activations fan out along shared links, and after repair the
// whole population rejoins. This is the workload the batched dispatch path
// (bcpd/round.go) exists for: one node failure touches every link around the
// victim many times, so the cost of a cycle should scale with the links
// touched, not with the individual control messages crossing them.
//
// The victims are pure transit nodes — every connection runs between
// non-victim endpoints — so a cycle never destroys a connection outright:
// disjoint primary/backup routing guarantees at most one channel of each
// pair crosses the victim, recovery always has a live channel to switch to,
// and the network returns to a steady state that the next cycle can fail
// again.
type StormWide struct {
	Eng     *sim.Engine
	Mgr     *core.Manager
	Net     *bcpd.Network
	Victims []topology.NodeID

	conns   []*core.DConnection
	traffic []*core.DConnection // sampled sources, so crashes disrupt data
	cycles  int
}

// StormWideConfig parameterizes NewStormWide. The network is always the 8×8
// torus with all pairs between non-victim endpoints.
type StormWideConfig struct {
	// PerMessageDispatch runs the per-message dispatch engine instead of
	// dispatch rounds — the A/B baseline for the batching work.
	PerMessageDispatch bool
	// Seed drives the engine.
	Seed int64
	// Sink optionally taps the protocol event stream.
	Sink trace.Sink
}

// Cycle phases: the crash phase covers detection, the report storm, and the
// activation wave; the repair phase covers the soft-state expiries tearing
// down the channels lost through the crashed node and the replenishments
// restoring every connection's backup count. Both are generous — the cycle
// asserts progress through counters, not completion of every last
// replenishment.
const (
	stormWideCrashPhase = sim.Duration(300 * time.Millisecond)
	// The repair phase reboots the victim immediately, so every
	// replenishment — activation-triggered at ~crash+400ms, expiry-
	// triggered at ~crash+950ms — routes with the victim back up and
	// replacements may thread through it again. That repopulation is what
	// keeps victims loaded with crossing primaries across cycles; holding
	// the victim down through the replenish wave drains them instead.
	stormWideRepairPhase = sim.Duration(900 * time.Millisecond)
	// stormWideSources is how many victim-crossing connections carry data,
	// so cycles yield a service-interruption latency distribution.
	stormWideSources = 16
	stormWideRate    = 100 // msgs/s per sampled source
)

// NewStormWide builds the loaded network: victims spread across the fabric,
// degree-1 disjoint backups on every connection, data traffic on a sample of
// victim-crossing connections.
func NewStormWide(cfg StormWideConfig) (*StormWide, error) {
	g := topology.NewTorus(8, 8, 200)
	victims := []topology.NodeID{1*8 + 1, 3*8 + 3, 4*8 + 4, 6*8 + 6}
	isVictim := make(map[topology.NodeID]bool, len(victims))
	for _, v := range victims {
		isVictim[v] = true
	}

	eng := sim.New(cfg.Seed)
	mgr := core.NewManager(g, core.DefaultConfig())
	// All pairs between non-victim endpoints, in AllPairs order.
	var reqs []workload.Request
	for _, r := range workload.AllPairs(g, rtchan.DefaultSpec(), []int{1}) {
		if !isVictim[r.Src] && !isVictim[r.Dst] {
			reqs = append(reqs, r)
		}
	}
	workload.Establish(mgr, reqs)
	conns := mgr.Connections()
	if len(conns) == 0 {
		return nil, fmt.Errorf("experiment: storm-wide established no connections")
	}

	// A rebooted node holds no soft state, so channels through a crashed
	// node cannot rejoin — they expire and are replaced. The timing makes
	// each cycle self-contained: soft state expires mid-repair-phase
	// (crash + 500ms), the expiry teardown frees the dead channel's
	// bandwidth, and replenishment then restores every connection to its
	// full backup count before the next cycle. That keeps the population
	// stationary across arbitrarily many cycles — the property a steady-
	// state benchmark needs. The replenish delay lands every replenishment
	// in the repair phase (activation-triggered ones at ~crash+400ms,
	// expiry-triggered ones at ~crash+900ms), keeping the crash phase pure
	// restoration: establishment work belongs to the untimed half of the
	// benchmark cycle.
	bcfg := bcpd.DefaultConfig()
	bcfg.RejoinTimeout = sim.Duration(500 * time.Millisecond)
	bcfg.RejoinProbeDelay = sim.Duration(100 * time.Millisecond)
	bcfg.ReplenishDelay = sim.Duration(400 * time.Millisecond)
	bcfg.PerMessageDispatch = cfg.PerMessageDispatch
	bcfg.Sink = cfg.Sink
	net := bcpd.New(eng, mgr, bcfg)

	s := &StormWide{
		Eng:     eng,
		Mgr:     mgr,
		Net:     net,
		Victims: victims,
		conns:   conns,
	}
	// Traffic rides on connections whose primary crosses a victim, spread
	// round-robin over the victims so every cycle interrupts some sources.
	perVictim := stormWideSources / len(victims)
	sampled := make(map[rtchan.ConnID]bool, stormWideSources)
	for _, v := range victims {
		picked := 0
		for _, c := range conns {
			if picked >= perVictim {
				break
			}
			if sampled[c.ID] || c.Primary == nil || !c.Primary.Path.ContainsNode(v) {
				continue
			}
			if err := net.StartTraffic(c.ID, stormWideRate); err != nil {
				return nil, err
			}
			sampled[c.ID] = true
			s.traffic = append(s.traffic, c)
			picked++
		}
	}
	return s, nil
}

// Cycle crashes the next victim node, runs the failure storm, repairs it,
// and runs the expiry/replenish wave. Progress is asserted through the
// protocol counters: the crash phase must start activations; the repair
// phase must expire the dead channels' soft state and replenish backups.
// The sampled sources' recoveries are in the event stream (Sink).
func (s *StormWide) Cycle() error {
	v, err := s.CrashPhase()
	if err != nil {
		return err
	}
	return s.RepairPhase(v)
}

// pickVictim selects the victim carrying the most crossing primaries — the
// node whose failure disables the most service. A fixed rotation drains
// instead: recovery persistently re-routes primaries away from whichever
// node failed last, and on sparse workloads a rotation slot can come up
// empty, failing a node nothing crosses anymore. Selection is a pure
// function of the primary routes, which are bit-identical across dispatch
// engines, so A/B runs still fail the same sequence of victims.
func (s *StormWide) pickVictim() topology.NodeID {
	best, bestN := s.Victims[0], -1
	for _, v := range s.Victims {
		n := 0
		for _, c := range s.conns {
			if c.Primary != nil && c.Primary.Path.ContainsNode(v) {
				n++
			}
		}
		if n > bestN {
			best, bestN = v, n
		}
	}
	return best
}

// CrashPhase is the restoration half of a cycle — the part the benchmarks
// time: it crashes the most loaded victim and runs the detection/report/
// activation storm to completion. Returns the victim for RepairPhase.
func (s *StormWide) CrashPhase() (topology.NodeID, error) {
	v := s.pickVictim()
	before := s.Net.Stats()
	s.Net.FailNode(v)
	s.Eng.RunFor(stormWideCrashPhase)
	mid := s.Net.Stats()
	if mid.ActivationsStarted == before.ActivationsStarted {
		return v, fmt.Errorf("experiment: storm-wide cycle %d: node %d crash started no activations", s.cycles, v)
	}
	return v, nil
}

// RepairPhase is the stationarity half: it repairs the victim and runs the
// soft-state expiries and replenishments that restore full redundancy, so
// the next CrashPhase fails an identically-loaded network. Benchmarks run
// it between iterations with the timer stopped — replacing the expired
// channels is establishment work, not restoration.
func (s *StormWide) RepairPhase(v topology.NodeID) error {
	mid := s.Net.Stats()
	s.Net.RepairNode(v)
	s.Eng.RunFor(stormWideRepairPhase)
	after := s.Net.Stats()
	if after.RejoinExpiries == mid.RejoinExpiries {
		return fmt.Errorf("experiment: storm-wide cycle %d: node %d crash expired no soft state", s.cycles, v)
	}
	if after.BackupsReplenished == mid.BackupsReplenished {
		return fmt.Errorf("experiment: storm-wide cycle %d: node %d repair replenished no backups", s.cycles, v)
	}
	s.cycles++
	return nil
}

// Run executes n cycles, stopping at the first failure.
func (s *StormWide) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Cycle(); err != nil {
			return err
		}
	}
	return nil
}

// Drain repairs everything and runs the engine long enough for every rejoin
// and retransmission to settle — the precondition for quiescence audits.
func (s *StormWide) Drain() {
	for _, v := range s.Victims {
		s.Net.RepairNode(v)
	}
	for _, c := range s.traffic {
		s.Net.StopTraffic(c.ID)
	}
	s.Eng.RunFor(5 * time.Second)
}

// Cycles returns the number of completed cycles.
func (s *StormWide) Cycles() int { return s.cycles }

// Conns returns how many connections load the network.
func (s *StormWide) Conns() int { return len(s.conns) }

// Stats returns the protocol counters accumulated so far.
func (s *StormWide) Stats() bcpd.Stats { return s.Net.Stats() }
