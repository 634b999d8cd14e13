package experiment

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// TraceScenario parameterizes the deterministic single-connection
// failure-recovery run every single-connection harness is built on —
// cmd/bcptrace, the golden-trace regression test, the wire fuzz-corpus
// seeding, the Section 5 and scheme-comparison tables, and Storm: an 8-hop
// connection across the paper's torus with degree-1 disjoint backups, one
// primary link crash mid-run, optional backup hit and repair.
type TraceScenario struct {
	FailPos  int          // primary link index to crash
	Backups  int          // degree-1 disjoint backups
	HitFirst bool         // also crash the first backup's last link
	FailAt   sim.Time     // the crash instant
	Repair   sim.Duration // repair the failed primary link after this delay (0 = never)
	Rate     float64      // data message rate (msgs/s); 0 runs the control plane only
	RunFor   sim.Duration

	Seed int64       // engine seed; same scenario, same run
	Core core.Config // resource-plane configuration
	// Config is the protocol configuration the network runs under,
	// including the scheme, the event sink and the frame tap.
	Config bcpd.Config
}

// DefaultTraceScenario mirrors bcptrace's defaults: Scheme 3, third primary
// link crashed at 50 ms, one backup, 500 msgs/s, 3 simulated seconds, and
// rejoin timers short enough that a repaired channel rejoins inside the run.
func DefaultTraceScenario() TraceScenario {
	cfg := bcpd.DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(2 * time.Second)
	cfg.RejoinProbeDelay = sim.Duration(100 * time.Millisecond)
	return TraceScenario{
		FailPos: 2,
		Backups: 1,
		FailAt:  sim.Time(50 * time.Millisecond),
		Rate:    500,
		RunFor:  sim.Duration(3 * time.Second),
		Seed:    1,
		Core:    core.DefaultConfig(),
		Config:  cfg,
	}
}

// TraceRun is one built scenario: the live network and the handles a
// renderer, checker or cycling harness needs.
type TraceRun struct {
	Eng  *sim.Engine
	Mgr  *core.Manager
	Conn *core.DConnection
	Net  *bcpd.Network
	// Events is the recorded stream (RunTraceScenario only).
	Events []trace.Event

	scenario TraceScenario
}

// Build loads the torus, establishes the connection, boots the protocol
// network and starts the source; nothing has failed yet.
func (s TraceScenario) Build() (*TraceRun, error) {
	g := NewGraph(Torus8x8)
	eng := sim.New(s.Seed)
	mgr := core.NewManager(g, s.Core)

	// An 8-hop connection across the torus: (0,0) -> (4,4).
	src, dst := topology.NodeID(0), topology.NodeID(36)
	paths := mgr.Router().SequentialDisjointPaths(src, dst, s.Backups+1, routing.Constraint{})
	if len(paths) < s.Backups+1 {
		return nil, fmt.Errorf("experiment: only %d disjoint paths for %d channels", len(paths), s.Backups+1)
	}
	degrees := make([]int, s.Backups)
	for i := range degrees {
		degrees[i] = 1
	}
	conn, err := mgr.EstablishOnPaths(rtchan.DefaultSpec(), paths[0], paths[1:s.Backups+1], degrees)
	if err != nil {
		return nil, err
	}
	if s.FailPos < 0 || s.FailPos >= conn.Primary.Path.Hops() {
		return nil, fmt.Errorf("experiment: fail index %d out of range", s.FailPos)
	}

	net := bcpd.New(eng, mgr, s.Config)
	if s.Rate > 0 {
		if err := net.StartTraffic(conn.ID, s.Rate); err != nil {
			return nil, err
		}
	}
	return &TraceRun{Eng: eng, Mgr: mgr, Conn: conn, Net: net, scenario: s}, nil
}

// Run schedules the scenario's crash (and repair) and runs it to completion.
func (r *TraceRun) Run() {
	s := r.scenario
	failed := []topology.LinkID{r.Conn.Primary.Path.Links()[s.FailPos]}
	if s.HitFirst && len(r.Conn.Backups) > 0 {
		// The first backup's last link: the source cannot know and
		// activates it first, paying the full retrial round trip — the
		// 2(b-1)(K-1)·D_max term of the bound.
		bl := r.Conn.Backups[0].Path.Links()
		failed = append(failed, bl[len(bl)-1])
	}
	r.Eng.At(s.FailAt, func() {
		for _, l := range failed {
			r.Net.FailLink(l)
		}
	})
	if s.Repair > 0 {
		r.Eng.At(s.FailAt.Add(s.Repair), func() { r.Net.RepairLink(failed[0]) })
	}
	r.Eng.RunFor(s.RunFor)
}

// RunTraceScenario builds and runs the scenario with a recorder on its
// event stream. The run is fully deterministic: same scenario, same stream.
func RunTraceScenario(s TraceScenario) (*TraceRun, error) {
	rec := &trace.Recorder{}
	if s.Config.Sink != nil {
		s.Config.Sink = trace.Tee{rec, s.Config.Sink}
	} else {
		s.Config.Sink = rec
	}
	run, err := s.Build()
	if err != nil {
		return nil, err
	}
	run.Run()
	run.Events = rec.Events
	return run, nil
}
