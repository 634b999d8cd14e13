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

// StormWide is a mass-failure rig: each cycle crashes an entire transit node
// of a heavily loaded network — hundreds of channels fail at once, their failure
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
// again. The tests drive the cycle (stormwide_test.go); bench/storm.go
// drives its own.
type StormWide struct {
	Eng     *sim.Engine
	Mgr     *core.Manager
	Net     *bcpd.Network
	Victims []topology.NodeID

	conns   []*core.DConnection
	traffic []*core.DConnection // sampled sources, so crashes disrupt data
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

const (
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

// Conns returns how many connections load the network.
func (s *StormWide) Conns() int { return len(s.conns) }
