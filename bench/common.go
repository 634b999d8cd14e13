package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/workload"
)

// mallocs returns the process's cumulative heap-object count. ReadMemStats
// stops the world and flushes every per-P cache, so deltas are exact; it is
// only ever called outside timed regions.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB forces a collection and returns the live heap in MB (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupClock times a workload's set-up: several times before the measured
// window and as many again after it, so that a slow spell of the machine
// shorter than the window cannot cover every sample. Each set-up is followed
// by three reference readings and its time divided by the slowdown at their
// median, as the calibrated estimator does per segment; setup_s is the lower quartile of the
// samples, for the reason that estimator takes the lower quartile of its
// segments.
type setupClock struct {
	times []float64 // seconds, calibrated
}

// time calls build n times, timing each call. build keeps whatever it needs
// from its last call; earlier products become garbage.
func (c *setupClock) time(n int, build func() error) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		// The collection the set-up's garbage started would run beside the
		// readings and slow them; let it finish first.
		runtime.GC()
		c.times = append(c.times, d/slowdownAt(medianOf(3, theRef.read)))
	}
	return nil
}

func (c *setupClock) put(rep *report, note string) {
	rep.put("setup_s", "s", percentile(sortedCopy(c.times), 0.25), len(c.times), "lower quartile of "+note)
}

const (
	torusSide     = 8
	torusCapacity = 200 // Mbps
	torusPairs    = torusSide * torusSide * (torusSide*torusSide - 1)
)

// churnDegrees is the paper's load: one backup per connection, multiplexing
// degree 3.
var churnDegrees = []int{3}

// loadedTorus builds the paper's evaluation network cold: an 8x8 torus at
// 200 Mbps carrying all 4032 ordered pairs, each a primary plus one disjoint
// backup at multiplexing degree 3.
func loadedTorus() (*topology.Graph, *core.Manager, error) {
	g := topology.NewTorus(torusSide, torusSide, torusCapacity)
	mgr := core.NewManager(g, core.DefaultConfig())
	est, rej := workload.Establish(mgr, workload.AllPairs(g, rtchan.DefaultSpec(), churnDegrees))
	if est != torusPairs || rej != 0 {
		return nil, nil, fmt.Errorf("torus fill established %d, rejected %d; want %d, 0", est, rej, torusPairs)
	}
	return g, mgr, nil
}

// checkPlan runs the resource plane's own audits.
func checkPlan(rep *report, mgr *core.Manager) {
	if err := mgr.CheckMuxInvariants(); err != nil {
		rep.failCheck("CheckMuxInvariants: %v", err)
	}
	if err := mgr.Network().CheckInvariants(); err != nil {
		rep.failCheck("rtchan CheckInvariants: %v", err)
	}
}

// putRtchan reports the admission guard: these two numbers are exact for a
// given population, so any change means admission decided differently.
func putRtchan(rep *report, mgr *core.Manager) {
	net := mgr.Network()
	rep.put("rtchan.spare_fraction", "ratio", net.SpareFraction(), 1, "exact")
	rep.put("rtchan.network_load", "ratio", net.NetworkLoad(), 1, "exact")
}

// putOpTimes reports op_p50_us and op_p95_us of a host-timed operation series
// by the calibrated estimator over segments of length seg.
func putOpTimes(rep *report, window, seg time.Duration, op *series, cal *calib, what string) {
	po := pool(op.durations())
	p50, n50 := calibrated(op.s, cal.readings, window, seg, 0.5)
	p95, n95 := calibrated(op.s, cal.readings, window, seg, 0.95)
	rep.put("op_p50_us", "us", p50/1e3, po.n, fmt.Sprintf("%s; pooled q1/med/q3 %.3f/%.3f/%.3f over %d segments", what, po.q1/1e3, po.median/1e3, po.q3/1e3, n50))
	rep.put("op_p95_us", "us", p95/1e3, po.n, fmt.Sprintf("pooled p95 %.3f p99 %.3f over %d segments", po.p95/1e3, po.p99/1e3, n95))
}

// putRate reports ops_per_s from a cycle series (start of one cycle to the
// start of the next) in which every cycle completes opsPerCycle operations:
// operations per calibrated median cycle.
func putRate(rep *report, window, seg time.Duration, cycle *series, cal *calib, opsPerCycle int) {
	pc := pool(cycle.durations())
	c50, nc := calibrated(cycle.s, cal.readings, window, seg, 0.5)
	rep.put("ops_per_s", "1/s", float64(opsPerCycle)*1e9/c50, pc.n, fmt.Sprintf("%d / calibrated median cycle; pooled median cycle %.3f us, median slowdown %.3f, over %d segments", opsPerCycle, pc.median/1e3, slowdown(sortedCopy(durations(cal.readings))), nc))
}
