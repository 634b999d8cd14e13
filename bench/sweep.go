package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/topology"
)

// sweepRun is the product of one closed-loop failure-sweep window. The
// operation is one Trial. Trials differ in cost (a node failure disables
// several times the primaries a link failure does), so their p95 is a real
// tail, the node failures; a whole sweep always does the same work and has no
// tail of its own, only the host's.
type sweepRun struct {
	trial, cycle      *series // per trial; per sweep, start to start
	cal               calib
	trials, passes    int
	failed, recovered int // over the first complete pass
	mismatches        int // passes whose R_fast differed from the first
	mallocs           uint64
}

// singleFailures lists every single-link and single-node failure of g in a
// seeded order. The set is the paper's Table 1 inner loop; only the order is
// random, so a sweep's totals are the same on every seed.
func singleFailures(g *topology.Graph, rng *rand.Rand) []core.Failure {
	fs := make([]core.Failure, 0, g.NumLinks()+g.NumNodes())
	for _, l := range g.Links() {
		fs = append(fs, core.SingleLink(l.ID))
	}
	for v := 0; v < g.NumNodes(); v++ {
		fs = append(fs, core.SingleNode(topology.NodeID(v)))
	}
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return fs
}

// sweep runs the closed loop for window: one worker pushes every failure
// through one TrialView, pass after pass. Trials are pure reads of the plan.
// Each Trial is timed on its own (two clock reads against some 15 us of work);
// the window is checked between sweeps, so every sweep is complete. Reference
// readings are taken between trials; a sweep's time leaves them out.
func sweep(view *core.TrialView, fs []core.Failure, window time.Duration, tr *tracer) sweepRun {
	r := sweepRun{trial: newSeries(int(window/(8*time.Microsecond)) + len(fs)), cycle: newSeries(int(window/time.Millisecond) + 64)}
	m0 := mallocs()
	start := time.Now()
	prev, reading := int64(-1), int64(0) // reading: spent on the reference inside this sweep
	for {
		t0 := int64(time.Since(start))
		if prev >= 0 {
			r.cycle.add(t0, t0-prev-reading)
		}
		if t0 >= int64(window) {
			break
		}
		prev, reading = t0, 0
		var failed, recovered int
		root := tr.begin("bench.sweep_pass", int64(r.passes), -1)
		now := t0
		for i := range fs {
			if r.cal.due(now) {
				r.cal.read(now)
				reading += int64(time.Since(start)) - now
			}
			s := tr.begin("core.Trial", int64(r.passes), root)
			a := int64(time.Since(start))
			st := view.Trial(fs[i], core.OrderByConn, nil)
			b := int64(time.Since(start))
			tr.end(s)
			r.trial.add(b, b-a)
			now = b
			failed += st.FailedPrimaries
			recovered += st.FastRecovered
		}
		tr.end(root)
		r.trials += len(fs)
		if r.passes == 0 {
			r.failed, r.recovered = failed, recovered
		} else if failed != r.failed || recovered != r.recovered {
			r.mismatches++
		}
		r.passes++
	}
	r.mallocs = mallocs() - m0
	return r
}

func (r sweepRun) rFast() float64 {
	if r.failed == 0 {
		return 1
	}
	return float64(r.recovered) / float64(r.failed)
}

func checkSweep(rep *report, r sweepRun, what string) {
	if r.passes == 0 {
		rep.failCheck("%s: window too short for one complete sweep", what)
	}
	if r.mismatches != 0 {
		rep.failCheck("%s: r_fast differed on %d of %d sweep passes", what, r.mismatches, r.passes)
	}
}

func runTrialSweep(cfg runConfig, tr *tracer) *report {
	rep := &report{}
	var mgr *core.Manager
	var g *topology.Graph
	var view *core.TrialView
	var setup setupClock
	err := setup.time(cfg.setups(), func() (err error) {
		if g, mgr, err = loadedTorus(); err == nil {
			view = mgr.NewTrialView()
		}
		return err
	})
	if err != nil {
		rep.failCheck("set-up: %v", err)
		return rep
	}
	heap := cfg.setupHeapMB()
	fs := singleFailures(g, rand.New(rand.NewSource(cfg.seed)))

	if tr == nil {
		r := sweep(view, fs, cfg.window, nil)
		rep.attempted = r.trials
		putOpTimes(rep, cfg.window, fastSegment, r.trial, &r.cal, "one Trial")
		// A sweep takes 7 to 15 ms: half-second segments, so that each still
		// holds the 20 a median needs when the box is slow.
		putRate(rep, cfg.window, slowSegment, r.cycle, &r.cal, len(fs))
		rep.put("allocs_per_op", "count", float64(r.mallocs)/float64(max(r.trials, 1)), r.trials, "mallocs per Trial")
		rep.put("success_ratio", "ratio", r.rFast(), r.failed, "r_fast")
		rep.put("r_fast", "ratio", r.rFast(), r.failed, fmt.Sprintf("%d recovered / %d failed primaries per sweep, exact: the same on every seed; %d sweeps of %d trials", r.recovered, r.failed, r.passes, len(fs)))
		rep.put("heap_mb", "MB", heap, 1, "live heap after the 4032-pair fill")
		checkSweep(rep, r, "sweep")
		checkPlan(rep, mgr)
		err = setup.time(cfg.setups(), func() error {
			_, m, err := loadedTorus()
			if err == nil {
				m.NewTrialView()
			}
			return err
		})
		if err != nil {
			rep.failCheck("set-up after the window: %v", err)
		}
		setup.put(rep, "cold 4032-pair fills + TrialView, half before the window and half after")
		return rep
	}

	slice := cfg.window / 2
	ref := sweep(view, fs, slice, nil)
	trc := sweep(view, fs, slice, tr)
	rep.attempted = ref.trials + trc.trials
	refNs, _ := calibrated(ref.trial.s, ref.cal.readings, slice, fastSegment, 0.5)
	trcNs, _ := calibrated(trc.trial.s, trc.cal.readings, slice, fastSegment, 0.5)
	per := pool(trc.trial.durations())
	rep.put("core.trial_ns", "ns", trcNs, trc.trials, fmt.Sprintf("calibrated median Trial, traced slice; pooled q1/med/q3 %.0f/%.0f/%.0f ns", per.q1, per.median, per.q3))
	rep.put("core.r_fast", "ratio", trc.rFast(), trc.failed, "recovered / failed primaries per sweep, exact")
	rep.put("trace.overhead_pct", "%", 100*(trcNs/refNs-1), trc.trials, fmt.Sprintf("traced %.0f ns vs untraced %.0f ns per Trial", trcNs, refNs))
	putRtchan(rep, mgr)
	checkSweep(rep, ref, "reference slice")
	checkSweep(rep, trc, "traced slice")
	if ref.passes > 0 && trc.passes > 0 && (ref.failed != trc.failed || ref.recovered != trc.recovered) {
		rep.failCheck("r_fast differs between the reference and traced slices")
	}
	checkPlan(rep, mgr)
	return rep
}
