package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/experiment"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// The storm cycle's simulated phases, the same lengths experiment.StormWide
// uses: the crash phase covers detection, the report storm and the activation
// wave; the repair phase covers soft-state expiry, rejoin and replenishment.
const (
	stormCrashPhase  = 300 * time.Millisecond
	stormRepairPhase = 900 * time.Millisecond
	stormSendPeriod  = 10 * time.Millisecond // StormWide's sources send 100 msg/s
	stormWarmup      = 50 * time.Millisecond
)

// stormRig is one loaded StormWide network plus what the harness learned
// about it from outside.
type stormRig struct {
	s       *experiment.StormWide
	rec     *trace.Recorder // nil when untraced
	sources []rtchan.ConnID // connections carrying sampled traffic
	seen    map[rtchan.ConnID]int
	rng     *rand.Rand
}

// newStormRig builds the StormWide population (8x8 torus, every pair between
// non-victim endpoints with a degree-1 backup, 16 sources at 100 msg/s whose
// primaries cross a victim) and warms it for 50 ms plus a seeded part of one
// send period, so crash instants land at seed-dependent phases of the
// sources' send schedule.
func newStormRig(seed int64, traced bool) (*stormRig, error) {
	r := &stormRig{seen: make(map[rtchan.ConnID]int), rng: rand.New(rand.NewSource(seed))}
	cfg := experiment.StormWideConfig{Seed: seed}
	if traced {
		r.rec = &trace.Recorder{}
		cfg.Sink = r.rec
	}
	s, err := experiment.NewStormWide(cfg)
	if err != nil {
		return nil, err
	}
	r.s = s
	s.Eng.RunFor(stormWarmup + r.jitter())
	// StormWide keeps its sampled sources private; they are the connections
	// whose sink has seen data by now.
	for _, c := range s.Mgr.Connections() {
		if len(s.Net.SinkArrivals(c.ID)) > 0 {
			r.sources = append(r.sources, c.ID)
		}
	}
	if len(r.sources) == 0 {
		return nil, fmt.Errorf("storm: no source delivered data during warm-up")
	}
	return r, nil
}

func (r *stormRig) jitter() time.Duration {
	return time.Duration(r.rng.Int63n(int64(stormSendPeriod)))
}

// pickVictim is StormWide's own rule: the victim carrying the most crossing
// primaries. It also returns the connections whose primary crosses it.
func (r *stormRig) pickVictim(conns []*core.DConnection, buf []rtchan.ConnID) (topology.NodeID, []rtchan.ConnID) {
	best, bestN := r.s.Victims[0], -1
	for _, v := range r.s.Victims {
		n := 0
		for _, c := range conns {
			if c.Primary != nil && crossesNode(c.Primary.Path, v) {
				n++
			}
		}
		if n > bestN {
			best, bestN = v, n
		}
	}
	buf = buf[:0]
	for _, c := range conns {
		if c.Primary != nil && crossesNode(c.Primary.Path, best) {
			buf = append(buf, c.ID)
		}
	}
	return best, buf
}

// activeHops is the hop count of the channel a connection's data rides now.
func (r *stormRig) activeHops(c rtchan.ConnID) int {
	if conn := r.s.Mgr.Connection(c); conn != nil && conn.Primary != nil {
		return conn.Primary.Path.Hops()
	}
	return 0
}

// stormExactPerSecond sets how many cycles carry the simulated-clock
// metrics: the first 16 per second of window, 320 of the roughly 1100 a 20 s
// window completes on the recording box. How many cycles fit a wall-clock
// window depends on the host, and a percentile over a host-dependent number
// of simulated crashes is not a property of the program; over a fixed number
// it is, and repeats to the last bit for a given seed and window.
const stormExactPerSecond = 16

func stormExactCycles(window time.Duration) int {
	return max(4, int(window.Seconds()*stormExactPerSecond))
}

// stormRun accumulates one window of cycles. What the embedded crashObs
// holds (n is the number of exact cycles), and simEvents and simPending, cover
// the exact cycles only and depend on nothing but the seed and the window's
// length; the series and malloc counts cover every cycle and measure the host.
type stormRun struct {
	crashObs
	crash, repair, cycle *series
	cal                  calib
	cycles, aborted      int    // completed and aborted cycles, whole window
	mallocs              uint64 // inside crash + repair phases only
	crashMallocs         uint64
	simEvents            uint64 // Engine.Processed over the crash phases
	simPending           int64  // Engine.Pending summed at the end of the crash phases
}

// check feeds the events recorded since the last call to the streaming
// conformance checker, timing it, and empties the recorder.
func (o *stormRun) check(rec *trace.Recorder, chk *conformance.Checker) {
	t0 := time.Now()
	for _, ev := range rec.Events {
		chk.Emit(ev)
	}
	o.checkNs += int64(time.Since(t0))
	o.checkedEvents += len(rec.Events)
	rec.Reset()
}

// run cycles the rig for window, and past it if the window closes before the
// exact cycles are done: crash the most-loaded victim, run the crash phase,
// repair, run the repair phase. Faults are injected closed-loop, one at a
// time; the data sources inside are fixed-rate open loops. Only the program's
// own calls (FailNode, RunFor, RepairNode) are inside timed regions; the
// harness's bookkeeping runs between them. chk is nil exactly when the rig is
// untraced.
func (r *stormRig) run(window time.Duration, tr *tracer, chk *conformance.Checker) stormRun {
	s := r.s
	capHint := int(window/(10*time.Millisecond)) + 64
	out := stormRun{crash: newSeries(capHint), repair: newSeries(capHint), cycle: newSeries(capHint)}
	exactCycles := stormExactCycles(window)
	var crossing []rtchan.ConnID
	arrivals := make(map[rtchan.ConnID]sim.Time, len(r.sources))
	start := time.Now()
	for out.cycles+out.aborted < exactCycles || int64(time.Since(start)) < int64(window) {
		id := int64(out.cycles + out.aborted)
		exact := int(id) < exactCycles
		var v topology.NodeID
		v, crossing = r.pickVictim(s.Mgr.Connections(), crossing)
		before := s.Net.Stats()
		proc0 := s.Eng.Processed()
		crashAt := s.Eng.Now()
		root := tr.begin("bench.storm_cycle", id, -1)

		m0 := mallocs()
		t0 := time.Now()
		sp := tr.begin("bcpd.FailNode", id, root)
		s.Net.FailNode(v)
		tr.end(sp)
		sp = tr.begin("sim.RunFor(crash)", id, root)
		s.Eng.RunFor(stormCrashPhase)
		tr.end(sp)
		crashWall := time.Since(t0)
		m1 := mallocs()

		mid := s.Net.Stats()
		procd, pending := s.Eng.Processed()-proc0, int64(s.Eng.Pending())
		// Disrupted sources: Γ is crash -> source switch, disruption is
		// crash -> first data message at the destination after the switch.
		clear(arrivals)
		var gamma, disruption []float64
		for _, c := range r.sources {
			sw := s.Net.SourceSwitches(c)
			fresh := sw[r.seen[c]:]
			r.seen[c] = len(sw)
			if len(fresh) == 0 {
				continue
			}
			gamma = append(gamma, float64(fresh[0].Sub(crashAt)))
			if at, ok := firstArrivalAfter(s.Net.SinkArrivals(c), fresh[0]); ok {
				disruption = append(disruption, float64(at.Sub(crashAt)))
				arrivals[c] = at
			}
		}
		restored := 0
		for _, c := range crossing {
			if conn := s.Mgr.Connection(c); conn != nil && conn.Primary != nil && !crossesNode(conn.Primary.Path, v) {
				restored++
			}
		}
		if chk != nil {
			if exact {
				out.observeCrash(r.rec.Events, crashAt, arrivals, r.activeHops, tr, id)
			}
			out.check(r.rec, chk)
		}

		m2 := mallocs()
		t1 := time.Now()
		sp = tr.begin("bcpd.RepairNode", id, root)
		s.Net.RepairNode(v)
		tr.end(sp)
		sp = tr.begin("sim.RunFor(repair)", id, root)
		s.Eng.RunFor(stormRepairPhase)
		tr.end(sp)
		repairWall := time.Since(t1)
		m3 := mallocs()
		tr.end(root)
		after := s.Net.Stats()

		cs, rs := subStats(mid, before), subStats(after, mid)
		// A cycle that made no progress is an aborted operation: the crash
		// must start activations, the repair must expire soft state and
		// replenish backups.
		if cs.ActivationsStarted == 0 || rs.RejoinExpiries == 0 || rs.BackupsReplenished == 0 {
			out.aborted++
		} else {
			at := int64(time.Since(start))
			out.crash.add(at, int64(crashWall))
			out.repair.add(at, int64(repairWall))
			out.cycle.add(at, int64(crashWall+repairWall))
			out.cycles++
			out.crashMallocs += m1 - m0
			out.mallocs += (m1 - m0) + (m3 - m2)
		}
		if exact {
			out.n++
			out.simEvents += procd
			out.simPending += pending
			out.gamma = append(out.gamma, gamma...)
			out.disruption = append(out.disruption, disruption...)
			out.sourcesDisrupted += len(gamma)
			out.sourcesResumed += len(disruption)
			out.failedPrimaries += len(crossing)
			out.restored += restored
			out.lostMsgs += int64(cs.DataSent) - int64(cs.DataDelivered)
			out.crashStats = addStats(out.crashStats, cs)
			out.repairStats = addStats(out.repairStats, rs)
		}
		// Untimed: slide the next crash to a fresh phase of the send period,
		// and read the reference when one is due.
		s.Eng.RunFor(r.jitter())
		if now := int64(time.Since(start)); out.cal.due(now) {
			out.cal.read(now)
		}
		if chk != nil {
			out.check(r.rec, chk)
		}
	}
	return out
}

// drainAndAudit repairs everything, lets the network settle, and runs the
// quiescence audits: no leaked timers, claims, soft state or pooled buffers.
func (r *stormRig) drainAndAudit(rep *report, what string) {
	s := r.s
	s.Drain()
	if q := s.Net.CheckQuiescence(); len(q) != 0 {
		rep.failCheck("%s: CheckQuiescence after drain: %v", what, q)
	}
	if n := s.Mgr.OutstandingClaims(); n != 0 {
		rep.failCheck("%s: %d outstanding claims after drain", what, n)
	}
	if st, ok := s.Net.Transport().(*bcpd.SimTransport); ok {
		pf, pd := s.Net.PoolOutstanding()
		tf, td := st.InTransit()
		if pf != tf || pd != td {
			rep.failCheck("%s: pool outstanding (%d frames, %d data) != in transit (%d, %d)", what, pf, pd, tf, td)
		}
	} else {
		rep.failCheck("%s: transport is not the sim transport", what)
	}
	checkPlan(rep, s.Mgr)
}

func (o *stormRun) count(rep *report) {
	rep.attempted += o.cycles + o.aborted
	// A source that switched but never saw data again is a failed operation
	// too. A primary that lost the race for spare bandwidth is not: that is
	// the multiplexing the paper designs in, and success_ratio reports it.
	rep.failed += o.aborted + (o.sourcesDisrupted - o.sourcesResumed)
}

func runStormNodeCrash(cfg runConfig, tr *tracer) *report {
	rep := &report{}
	var rig *stormRig
	var setup setupClock
	err := setup.time(cfg.setups(), func() (err error) {
		rig, err = newStormRig(cfg.seed, false)
		return err
	})
	if err != nil {
		rep.failCheck("set-up: %v", err)
		return rep
	}
	heap := cfg.setupHeapMB()
	dmax := perHopBound(bcpd.DefaultConfig(), torusCapacity)

	if tr == nil {
		o := rig.run(cfg.window, nil, nil)
		o.count(rep)
		// The operation is the recovery as a disrupted source's user sees
		// it, on the clock that user lives on; what a cycle costs the host
		// shows in ops_per_s and in the two phase times.
		clock := fmt.Sprintf("simulated clock, exact over the first %d cycles", o.n)
		d := pool(o.disruption)
		rep.put("op_p50_us", "us", d.median/1e3, d.n, "disruption_p50_ms; "+clock)
		rep.put("op_p95_us", "us", d.p95/1e3, d.n, "disruption_p95_ms; "+clock)
		putRate(rep, cfg.window, longSegment, o.cycle, &o.cal, 1)
		crash50, nc := calibrated(o.crash.s, o.cal.readings, cfg.window, longSegment, 0.5)
		repair50, _ := calibrated(o.repair.s, o.cal.readings, cfg.window, longSegment, 0.5)
		rep.put("crash_phase_p50_ms", "ms", crash50/1e6, o.cycles, fmt.Sprintf("wall cost of FailNode + %v simulated, calibrated median over %d segments; pooled median %.3f", stormCrashPhase, nc, pool(o.crash.durations()).median/1e6))
		rep.put("repair_phase_p50_ms", "ms", repair50/1e6, o.cycles, fmt.Sprintf("wall cost of RepairNode + %v simulated; pooled median %.3f", stormRepairPhase, pool(o.repair.durations()).median/1e6))
		cyc := float64(max(o.cycles, 1))
		rep.put("allocs_per_op", "count", float64(o.mallocs)/cyc, o.cycles, fmt.Sprintf("mallocs per cycle; crash phase alone %.2f", float64(o.crashMallocs)/cyc))
		rep.put("success_ratio", "ratio", o.restoredRatio(), o.failedPrimaries, "restored_ratio")
		o.putRecovery(rep, "", clock, dmax, stormSendPeriod)
		rep.put("heap_mb", "MB", heap, 1, "live heap after building the population")
		rig.drainAndAudit(rep, "storm")
		err = setup.time(cfg.setups(), func() error {
			_, err := newStormRig(cfg.seed, false)
			return err
		})
		if err != nil {
			rep.failCheck("set-up after the window: %v", err)
		}
		setup.put(rep, fmt.Sprintf("StormWide builds + warm-up (%d connections), half before the window and half after", rig.s.Conns()))
		return rep
	}

	// Traced pass: a reference slice on the untraced rig, a traced slice on
	// a second rig with a recording sink, then the isolated-layer kernels.
	slice := cfg.window * 2 / 5
	ref := rig.run(slice, nil, nil)
	ref.count(rep)

	traced, err := newStormRig(cfg.seed, true)
	if err != nil {
		rep.failCheck("traced set-up: %v", err)
		return rep
	}
	chk := conformance.New(conformance.Params{PropSlack: sim.Duration(5 * time.Millisecond)})
	// The checker sees the stream from the start: installs happen at
	// construction, warm-up traffic before the first crash.
	var pre stormRun
	pre.check(traced.rec, chk)
	o := traced.run(slice, tr, chk)
	o.count(rep)

	cycles := float64(max(o.n, 1))
	refCrash, _ := calibrated(ref.crash.s, ref.cal.readings, slice, longSegment, 0.5)
	trcCrash, _ := calibrated(o.crash.s, o.cal.readings, slice, longSegment, 0.5)
	trcRepair, _ := calibrated(o.repair.s, o.cal.readings, slice, longSegment, 0.5)
	rep.put("bcpd.crash_phase_p50_ms", "ms", trcCrash/1e6, o.cycles, "wall cost of one crash phase, traced slice")
	rep.put("bcpd.repair_phase_p50_ms", "ms", trcRepair/1e6, o.cycles, "wall cost of one repair phase, traced slice")
	rep.put("trace.overhead_pct", "%", 100*(trcCrash/refCrash-1), o.cycles, fmt.Sprintf("traced %.3f ms vs untraced %.3f ms per crash phase", trcCrash/1e6, refCrash/1e6))
	rep.put("sim.events_per_crash", "count", float64(o.simEvents)/cycles, o.n, "Engine.Processed delta over the crash phase, exact")
	rep.put("sim.ns_per_event", "ns", trcCrash*cycles/float64(max(o.simEvents, 1)), o.n, "crash-phase wall time / events processed")
	rep.put("sim.pending_after_crash", "count", float64(o.simPending)/cycles, o.n, "Engine.Pending at the end of the crash phase")

	putProtocolKernels(rep, cfg, tr)
	rep.put("sim.timer_churn_ns", "ns", kernelTimerChurn(cfg.iters(50000), tr), kernelBatches, "schedule/stop/fire over 1024 standing timers")
	schedNs, schedDropped := kernelSched(cfg.iters(5000), tr)
	rep.put("sched.ns_per_packet", "ns", schedNs, kernelBatches, "one link, control + real-time classes")
	rep.put("sched.dropped_queue", "count", float64(schedDropped), 1, "class-queue overflows in the sched kernel, exact")

	// The resource-plane kernels replay over the reference rig's plan once it
	// has drained: its manager has no sink attached, so they time core alone.
	rig.drainAndAudit(rep, "reference rig")
	claimNs, claimN := kernelClaimBatch(rig.s.Mgr, cfg.iters(1000), tr)
	rep.put("core.claim_batch_ns", "ns", claimNs, claimN, "median ClaimBatch+ReleaseClaimBatch over loaded backup paths")
	replNs, replN := kernelReplenish(rig.s.Mgr, cfg.iters(300), tr)
	rep.put("core.replenish_ns", "ns", replNs, replN, "median ReplenishBackups adding one backup on the loaded plan")
	if claimN == 0 || replN == 0 || replNs < 0 {
		rep.failCheck("resource-plane kernels admitted nothing (claims %d, replenishments %d)", claimN, replN)
	}
	checkPlan(rep, rig.s.Mgr)
	putRtchan(rep, rig.s.Mgr)

	traced.drainAndAudit(rep, "traced rig")
	o.check(traced.rec, chk)
	viol := chk.Finish()
	for _, v := range viol[:min(len(viol), 5)] {
		rep.failCheck("conformance: %v", v)
	}
	o.checkNs += pre.checkNs
	o.checkedEvents += pre.checkedEvents
	rep.put("conformance.violations", "count", float64(len(viol)), o.checkedEvents, "must be 0")
	o.putLayerMetrics(rep, dmax, stormSendPeriod, fmt.Sprintf("simulated clock, exact over the first %d cycles", o.n), "crash phase")
	return rep
}
