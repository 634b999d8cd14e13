package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// churnRun is the product of one closed-loop establish/teardown window.
type churnRun struct {
	est, td, cycle *series
	cal            calib
	ops, rejected  int
	mallocs        uint64
	writeTxns      uint64
}

func randomPair(rng *rand.Rand, n int) (topology.NodeID, topology.NodeID) {
	for {
		s, d := rng.Intn(n), rng.Intn(n)
		if s != d {
			return topology.NodeID(s), topology.NodeID(d)
		}
	}
}

// churn runs the closed loop for window: one client establishes a seeded
// random pair on the loaded network, then tears it down. Each Establish and
// each Teardown is timed on its own; the cycle series runs from the start of
// one operation to the start of the next. A reference reading is taken between
// operations and belongs to no cycle.
func churn(mgr *core.Manager, rng *rand.Rand, window time.Duration, tr *tracer) churnRun {
	n := mgr.Graph().NumNodes()
	spec := rtchan.DefaultSpec()
	capHint := int(window/(20*time.Microsecond)) + 1024
	r := churnRun{est: newSeries(capHint), td: newSeries(capHint), cycle: newSeries(capHint)}
	epoch0 := mgr.PlanEpoch()
	m0 := mallocs()
	start := time.Now()
	prev := int64(-1)
	for {
		t0 := int64(time.Since(start))
		if prev >= 0 {
			r.cycle.add(t0, t0-prev)
		}
		if t0 >= int64(window) {
			break
		}
		if r.cal.due(t0) {
			r.cal.read(t0)
			prev = -1
			continue
		}
		prev = t0
		src, dst := randomPair(rng, n)
		root := tr.begin("bench.churn_op", int64(r.ops), -1)
		se := tr.begin("core.Establish", int64(r.ops), root)
		conn, err := mgr.Establish(src, dst, spec, churnDegrees)
		t1 := int64(time.Since(start))
		tr.end(se)
		if err != nil {
			r.rejected++
			tr.end(root)
			continue
		}
		st := tr.begin("core.Teardown", int64(r.ops), root)
		err = mgr.Teardown(conn.ID)
		t2 := int64(time.Since(start))
		tr.end(st)
		tr.end(root)
		if err != nil {
			r.rejected++
			continue
		}
		r.est.add(t1, t1-t0)
		r.td.add(t2, t2-t1)
		r.ops++
	}
	r.mallocs = mallocs() - m0
	r.writeTxns = mgr.PlanEpoch() - epoch0
	return r
}

// checkChurn is the workload's correctness check: the population is back to
// exactly the 4032 connections it started with and both audits pass.
func checkChurn(rep *report, mgr *core.Manager) {
	if got := mgr.NumConnections(); got != torusPairs {
		rep.failCheck("connection count %d after churn, want %d", got, torusPairs)
	}
	checkPlan(rep, mgr)
}

func runEstablishChurn(cfg runConfig, tr *tracer) *report {
	rep := &report{}
	var mgr *core.Manager
	var g *topology.Graph
	var setup setupClock
	err := setup.time(cfg.setups(), func() (err error) {
		g, mgr, err = loadedTorus()
		return err
	})
	if err != nil {
		rep.failCheck("set-up: %v", err)
		return rep
	}
	heap := cfg.setupHeapMB()
	rng := rand.New(rand.NewSource(cfg.seed))

	if tr == nil {
		r := churn(mgr, rng, cfg.window, nil)
		rep.attempted, rep.failed = r.ops+r.rejected, r.rejected
		putOpTimes(rep, cfg.window, fastSegment, r.est, &r.cal, "one Establish")
		putRate(rep, cfg.window, fastSegment, r.cycle, &r.cal, 1)
		rep.put("allocs_per_op", "count", float64(r.mallocs)/float64(max(r.ops, 1)), r.ops, "mallocs per Establish+Teardown")
		rep.put("success_ratio", "ratio", float64(r.ops)/float64(max(rep.attempted, 1)), rep.attempted, "establishes admitted / attempted")
		rep.put("heap_mb", "MB", heap, 1, "live heap after the 4032-pair fill")
		checkChurn(rep, mgr)
		err = setup.time(cfg.setups(), func() error {
			_, _, err := loadedTorus()
			return err
		})
		if err != nil {
			rep.failCheck("set-up after the window: %v", err)
		}
		setup.put(rep, "cold 4032-pair fills, half before the window and half after")
		return rep
	}

	// Traced pass: an untraced reference slice, a traced slice of the same
	// loop, then the routing layer replayed alone over the traced slice's
	// pair sequence.
	slice := cfg.window * 2 / 5
	ref := churn(mgr, rng, slice, nil)
	replaySeed := cfg.seed + 1
	trc := churn(mgr, rand.New(rand.NewSource(replaySeed)), slice, tr)
	rep.attempted = ref.ops + ref.rejected + trc.ops + trc.rejected
	rep.failed = ref.rejected + trc.rejected

	estNs, _ := calibrated(trc.est.s, trc.cal.readings, slice, fastSegment, 0.5)
	estP99, _ := calibrated(trc.est.s, trc.cal.readings, slice, fastSegment, 0.99)
	tdNs, _ := calibrated(trc.td.s, trc.cal.readings, slice, fastSegment, 0.5)
	refNs, _ := calibrated(ref.est.s, ref.cal.readings, slice, fastSegment, 0.5)
	rep.put("core.establish_ns", "ns", estNs, trc.ops, "calibrated median, traced slice")
	rep.put("core.establish_p99_ns", "ns", estP99, trc.ops, "calibrated p99, traced slice")
	rep.put("core.teardown_ns", "ns", tdNs, trc.ops, "calibrated median, traced slice")
	rep.put("core.write_txn_per_op", "count", float64(trc.writeTxns)/float64(max(trc.ops, 1)), trc.ops, "PlanEpoch delta per Establish+Teardown, exact")
	rep.put("trace.overhead_pct", "%", 100*(estNs/refNs-1), trc.ops, fmt.Sprintf("traced %.0f ns vs untraced %.0f ns per Establish", estNs, refNs))

	shortest, disjoint, pairs := replayRouting(g, replaySeed, min(trc.ops, 50000), tr)
	rep.put("routing.shortest_ns", "ns", shortest, pairs, "median Router.ShortestLinks over the replayed pairs")
	rep.put("routing.disjoint_ns", "ns", disjoint, pairs, "median Router.DisjointLinks(count=2) over the replayed pairs")
	rep.put("routing.share_of_establish", "ratio", (shortest+disjoint)/estNs, pairs, "(shortest+disjoint)/establish; unconstrained searches, an upper estimate of routing's share")
	putRtchan(rep, mgr)
	checkChurn(rep, mgr)
	return rep
}

// replayRouting times the routing layer alone on the pair sequence the
// churn loop drew from seed: one shortest-path search and one two-path
// disjoint search per pair, on a Router of its own with warm SPT caches.
func replayRouting(g *topology.Graph, seed int64, pairs int, tr *tracer) (shortestNs, disjointNs float64, n int) {
	router := routing.NewRouter(g)
	rng := rand.New(rand.NewSource(seed))
	sh := make([]float64, 0, pairs)
	dj := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		src, dst := randomPair(rng, g.NumNodes())
		s1 := tr.begin("routing.ShortestLinks", int64(i), -1)
		t0 := time.Now()
		_, ok := router.ShortestLinks(src, dst, routing.Constraint{})
		d := time.Since(t0)
		tr.end(s1)
		if ok {
			sh = append(sh, float64(d))
		}
		s2 := tr.begin("routing.DisjointLinks", int64(i), -1)
		t0 = time.Now()
		sets := router.DisjointLinks(src, dst, 2, routing.Constraint{})
		d = time.Since(t0)
		tr.end(s2)
		if len(sets) == 2 {
			dj = append(dj, float64(d))
		}
	}
	return percentile(sortedCopy(sh), 0.5), percentile(sortedCopy(dj), 0.5), len(sh)
}
