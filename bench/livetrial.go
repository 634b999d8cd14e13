package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
)

// liveRun accumulates one window of trials.
type liveRun struct {
	crashObs
	boot, trial    *series
	timedOut       int
	mallocs        uint64
	dropped        uint64 // Runtime.Dropped summed over trials
	pipeDropped    uint64
	goroutineLeaks int
	dataMsgs       int64

	// Traced pass only.
	violations                 []conformance.Violation
	frames, frameBytes, sendNs int64
	probe                      liveProbe
}

// liveTrials runs trials back to back for window. Each boots a fresh network,
// waits until every source has delivered liveWarmMsgs messages, crashes the
// victim, and records per source crash -> source switch (Γ) and crash ->
// first arrival at the destination after the switch (disruption), on the
// runtime's monotonic clock.
func liveTrials(cfg runConfig, window time.Duration, tr *tracer) (liveRun, error) {
	capHint := int(window/(10*time.Millisecond)) + 64
	out := liveRun{boot: newSeries(capHint), trial: newSeries(capHint)}
	rng := rand.New(rand.NewSource(cfg.seed))
	m0 := mallocs()
	start := time.Now()
	for int64(time.Since(start)) < int64(window) {
		id := int64(out.n + out.timedOut)
		goroutines := runtime.NumGoroutine()
		t0 := time.Now()
		root := tr.begin("bench.live_trial", id, -1)
		sp := tr.begin("bench.boot", id, root)
		ln, err := bootLive(cfg.seed+id, rng, tr != nil)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		ok := out.oneTrial(ln, tr, id, root)
		sp = tr.begin("bench.stop", id, root)
		ln.stop()
		tr.end(sp)
		tr.end(root)
		if ok {
			out.n++
			at := int64(time.Since(start))
			out.boot.add(at, ln.bootNs)
			out.trial.add(at, int64(time.Since(t0)))
		} else {
			out.timedOut++
		}
		out.dropped += ln.rt.Dropped()
		out.pipeDropped += ln.pipe.Dropped()
		if ok && tr != nil {
			out.afterStop(ln, tr, id)
		}
		for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if runtime.NumGoroutine() > goroutines {
			out.goroutineLeaks++
		}
	}
	out.mallocs = mallocs() - m0
	return out, nil
}

// oneTrial drives a booted network through warm-up, crash and recovery.
func (o *liveRun) oneTrial(ln *liveNet, tr *tracer, id int64, root int32) bool {
	net := ln.net
	warm := ln.await(liveTimeout, func() bool {
		for _, c := range ln.sources {
			if len(net.SinkArrivals(c)) < liveWarmMsgs {
				return false
			}
		}
		return true
	})
	if !warm {
		return false
	}
	// Nothing writes the plan before the crash, so it is safe to read here.
	var crossing []rtchan.ConnID
	for _, c := range ln.mgr.Connections() {
		if c.Primary != nil && crossesNode(c.Primary.Path, liveVictim) {
			crossing = append(crossing, c.ID)
		}
	}

	var probeStop chan struct{}
	var probeDone sync.WaitGroup
	if tr != nil {
		probeStop = make(chan struct{})
		probeDone.Add(1)
		go ln.probe.run(ln.rt, liveSide*liveSide, probeStop, &probeDone)
	}

	var before bcpd.Stats
	sp := tr.begin("bcpd.FailNode", id, root)
	ln.rt.Exec(func() {
		before = net.Stats()
		ln.failAt = ln.rt.Now()
		net.FailNode(liveVictim)
	})
	tr.end(sp)

	sp = tr.begin("bench.await_resume", id, root)
	switchAt := make([]sim.Time, len(ln.sources))
	arriveAt := make([]sim.Time, len(ln.sources))
	resumed := ln.await(liveTimeout, func() bool {
		for i, c := range ln.sources {
			sw := net.SourceSwitches(c)
			if len(sw) == 0 {
				return false
			}
			at, ok := firstArrivalAfter(net.SinkArrivals(c), sw[0])
			if !ok {
				return false
			}
			switchAt[i], arriveAt[i] = sw[0], at
		}
		return true
	})
	tr.end(sp)
	// Every failed primary, not just the sampled ones, must be re-routed.
	restored := 0
	sp = tr.begin("bench.await_restored", id, root)
	ln.await(liveTimeout/10, func() bool {
		restored = 0
		for _, c := range crossing {
			if conn := ln.mgr.Connection(c); conn != nil && conn.Primary != nil && !crossesNode(conn.Primary.Path, liveVictim) {
				restored++
			}
		}
		return restored == len(crossing)
	})
	tr.end(sp)
	if tr != nil {
		close(probeStop)
		probeDone.Wait()
	}
	var after bcpd.Stats
	ln.rt.Exec(func() { after = net.Stats() })
	if !resumed {
		return false
	}
	ln.arrivals = make(map[rtchan.ConnID]sim.Time, len(ln.sources))
	for i, c := range ln.sources {
		o.gamma = append(o.gamma, float64(switchAt[i].Sub(ln.failAt)))
		o.disruption = append(o.disruption, float64(arriveAt[i].Sub(ln.failAt)))
		ln.arrivals[c] = arriveAt[i]
	}
	o.sourcesDisrupted += len(ln.sources)
	o.sourcesResumed += len(ln.sources)
	o.failedPrimaries += len(crossing)
	o.restored += restored
	d := subStats(after, before)
	o.lostMsgs += int64(d.DataSent) - int64(d.DataDelivered)
	o.crashStats = addStats(o.crashStats, d)
	o.dataMsgs += int64(after.DataSent)
	return true
}

// afterStop consumes what only a stopped runtime may be asked for without its
// lock: the trial's whole event stream (stage spans, RCC counts, conformance),
// the transport tap and the probe's samples.
func (o *liveRun) afterStop(ln *liveNet, tr *tracer, id int64) {
	events := ln.rec.Events
	hops := func(c rtchan.ConnID) int {
		if conn := ln.mgr.Connection(c); conn != nil && conn.Primary != nil {
			return conn.Primary.Path.Hops()
		}
		return 0
	}
	o.observeCrash(events, ln.failAt, ln.arrivals, hops, tr, id)
	sp := tr.begin("conformance.Check", id, -1)
	t0 := time.Now()
	viol := conformance.Check(events, conformance.Params{
		// Under the wall clock a delivery can trail a failure by scheduler
		// jitter, not just propagation delay; the trial stops the world at
		// an arbitrary instant, so claims may legitimately be outstanding.
		PropSlack:              liveProtocolConfig().PropDelay + sim.Duration(500*time.Millisecond),
		AllowOutstandingClaims: true,
	})
	o.checkNs += int64(time.Since(t0))
	tr.end(sp)
	o.checkedEvents += len(events)
	o.violations = append(o.violations, viol...)
	o.frames += ln.tap.frames
	o.frameBytes += ln.tap.frameBytes
	o.sendNs += ln.tap.sendFrameNs
	o.probe.exec = append(o.probe.exec, ln.probe.exec...)
	o.probe.mailbox = append(o.probe.mailbox, ln.probe.mailbox...)
	o.probe.timer = append(o.probe.timer, ln.probe.timer...)
}

// check counts the window's operations and runs the workload's own checks.
func (o *liveRun) check(rep *report, what string) {
	rep.attempted += o.n + o.timedOut
	rep.failed += o.timedOut
	if o.n == 0 {
		rep.failCheck("%s: no live trial completed", what)
	}
	if o.timedOut != 0 {
		rep.failCheck("%s: %d trials timed out before every source resumed", what, o.timedOut)
	}
	if o.dropped != 0 {
		rep.failCheck("%s: Runtime.Dropped() = %d", what, o.dropped)
	}
	if o.goroutineLeaks != 0 {
		rep.failCheck("%s: goroutine count did not return to its pre-trial value after Stop on %d trials", what, o.goroutineLeaks)
	}
}

func runLiveNodeCrash(cfg runConfig, tr *tracer) *report {
	rep := &report{}
	// One network booted only to weigh it; every trial boots its own.
	ln, err := bootLive(cfg.seed, rand.New(rand.NewSource(cfg.seed)), false)
	if err != nil {
		rep.failCheck("set-up: %v", err)
		return rep
	}
	heap := cfg.setupHeapMB()
	ln.stop()
	dmax := perHopBound(liveProtocolConfig(), torusCapacity)

	if tr == nil {
		o, err := liveTrials(cfg, cfg.window, nil)
		if err != nil {
			rep.failCheck("live trial: %v", err)
			return rep
		}
		o.check(rep, "live")
		d := pool(o.disruption)
		trial50, nt := quiet(o.trial.s, cfg.window, longSegment, 0.5)
		boot50, _ := quiet(o.boot.s, cfg.window, longSegment, 0.5)
		trials := float64(max(o.n, 1))
		rep.put("op_p50_us", "us", d.median/1e3, d.n, fmt.Sprintf("disruption, pooled q1/q3 %.1f/%.1f us", d.q1/1e3, d.q3/1e3))
		rep.put("op_p95_us", "us", d.p95/1e3, d.n, fmt.Sprintf("disruption p95, pooled; p99 %.1f us", d.p99/1e3))
		rep.put("ops_per_s", "1/s", 1e9/trial50, o.n, fmt.Sprintf("1/quiet median trial (boot, warm-up, crash, recovery, stop) over %d segments", nt))
		rep.put("allocs_per_op", "count", float64(o.mallocs)/trials, o.n, "mallocs per trial, boot included")
		rep.put("success_ratio", "ratio", o.restoredRatio(), o.failedPrimaries, "restored_ratio")
		o.putRecovery(rep, "", "wall clock, pooled", dmax, liveSendPeriod)
		rep.put("heap_mb", "MB", heap, 1, "live heap with one network booted")
		rep.put("setup_s", "s", boot50/1e9, o.n, fmt.Sprintf("quiet median boot of one live network (210-pair fill, 16 actors, pipes, protocol); pooled median %.6f", pool(o.boot.durations()).median/1e9))
		return rep
	}

	slice := cfg.window * 2 / 5
	ref, err := liveTrials(cfg, slice, nil)
	if err != nil {
		rep.failCheck("live reference slice: %v", err)
		return rep
	}
	ref.check(rep, "reference slice")
	o, err := liveTrials(cfg, slice, tr)
	if err != nil {
		rep.failCheck("live traced slice: %v", err)
		return rep
	}
	o.check(rep, "traced slice")

	trials := float64(max(o.n, 1))
	frames := float64(max(o.frames, 1))
	refD, trcD := pool(ref.disruption), pool(o.disruption)
	rep.put("trace.overhead_pct", "%", 100*(trcD.median/refD.median-1), trcD.n, fmt.Sprintf("traced %.1f us vs untraced %.1f us median disruption", trcD.median/1e3, refD.median/1e3))
	o.putLayerMetrics(rep, dmax, liveSendPeriod, "wall clock, pooled", "trial")
	putProtocolKernels(rep, cfg, tr)

	ex, mb, tm := pool(o.probe.exec), pool(o.probe.mailbox), pool(o.probe.timer)
	rep.put("realtime.exec_wait_us_p50", "us", ex.median/1e3, ex.n, "Exec(noop) round trip during recovery")
	rep.put("realtime.exec_wait_us_p95", "us", ex.p95/1e3, ex.n, "")
	rep.put("realtime.mailbox_wait_us_p50", "us", mb.median/1e3, mb.n, "Post -> actor runs the item")
	rep.put("realtime.mailbox_wait_us_p95", "us", mb.p95/1e3, mb.n, "")
	rep.put("realtime.timer_late_us_p50", "us", tm.median/1e3, tm.n, "200 us timer: fired - due")
	rep.put("realtime.timer_late_us_p95", "us", tm.p95/1e3, tm.n, "")
	rep.put("realtime.dropped", "count", float64(o.dropped), o.n, fmt.Sprintf("Runtime.Dropped() summed over trials; pipe transport dropped %d", o.pipeDropped))
	rep.put("transport.frames_per_trial", "count", float64(o.frames)/trials, o.n, "SendFrame calls per trial")
	rep.put("transport.frame_bytes", "B", float64(o.frameBytes)/frames, int(o.frames), "mean marshaled frame size")
	rep.put("transport.data_msgs", "count", float64(o.dataMsgs)/trials, o.n, "data messages sent per trial (Stats().DataSent)")
	rep.put("transport.send_frame_ns", "ns", float64(o.sendNs)/frames, int(o.frames), "mean wall time inside PipeTransport.SendFrame")
	for _, v := range o.violations[:min(len(o.violations), 5)] {
		rep.failCheck("conformance: %v", v)
	}
	rep.put("conformance.violations", "count", float64(len(o.violations)), o.checkedEvents, "must be 0")
	return rep
}
