// Command bcpbench runs the repository's kernel micro-benchmarks through
// testing.Benchmark and records the results as JSON, so performance work can
// be compared across commits without scraping `go test -bench` output.
//
// Usage:
//
//	bcpbench                          # writes BENCH_pr1.json
//	bcpbench -label mybranch          # writes BENCH_mybranch.json
//	bcpbench -compare BENCH_main.json # embed a baseline and per-metric deltas
//	bcpbench -workers 8               # also time a parallel Table 1 column
//	bcpbench -smoke                   # CI allocation guard: hot kernels once each
//	bcpbench -ab                      # batched-vs-per-message storm A/B guard
//	bcpbench -count 3                 # min-of-3 rounds per kernel (noisy boxes)
//
// The establishment/trial kernels mirror the benchmarks in bench_test.go:
// the 4032-pair establishment (the setup cost of every table), one
// establishment on a loaded network, and one failure trial (the inner loop
// of every R_fast sweep). The routing kernels (RoutingAllPairs,
// DisjointPair) time the Router's scratch-backed searches in isolation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/rtcl/bcp"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Vs the same benchmark in the -compare file: negative is faster /
	// leaner. Only set for kernels present in both runs.
	DeltaNsPct     *float64 `json:"delta_ns_pct,omitempty"`
	DeltaBytesPct  *float64 `json:"delta_bytes_pct,omitempty"`
	DeltaAllocsPct *float64 `json:"delta_allocs_pct,omitempty"`
}

// File is the schema of a BENCH_<label>.json file.
type File struct {
	Label    string   `json:"label"`
	Date     string   `json:"date"`
	Results  []Result `json:"results"`
	Baseline string   `json:"baseline,omitempty"`
}

// benchCount is the -count flag: each kernel runs this many rounds and the
// fastest round is recorded (the usual antidote to noisy-neighbour boxes —
// alloc counts are deterministic, so only ns/op needs the min-fold).
var benchCount = 1

// deltaEpsilonPct is the baseline-comparison noise floor: deltas smaller
// than this in magnitude are reported as exactly 0, so byte-identical runs
// (and sub-rounding jitter on deterministic alloc counts) do not show up as
// phantom ±0.0x% drifts in the JSON.
const deltaEpsilonPct = 0.05

func clampDelta(d float64) float64 {
	if math.Abs(d) < deltaEpsilonPct {
		return 0
	}
	return d
}

func measure(name string, fn func(b *testing.B)) Result {
	var best Result
	for i := 0; i < benchCount; i++ {
		r := testing.Benchmark(fn)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if i == 0 || ns < best.NsPerOp {
			best = Result{
				Name:        name,
				N:           r.N,
				NsPerOp:     ns,
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
		}
	}
	return best
}

func loadedManager() *bcp.Manager {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	bcp.EstablishWorkload(mgr, bcp.AllPairs(g, bcp.DefaultSpec(), []int{3}))
	return mgr
}

// runProtocolScenario executes the ProtocolTrace kernel's scenario once: an
// 8-hop torus connection under 500 msg/s of data traffic, a mid-primary
// link crash at 50 ms, one simulated second end to end.
func runProtocolScenario(sink bcp.TraceSink) error {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	paths := bcp.SequentialDisjointPaths(g, 0, 36, 2, bcp.RoutingConstraint{})
	if len(paths) < 2 {
		return fmt.Errorf("no disjoint paths on the torus")
	}
	conn, err := mgr.EstablishOnPaths(bcp.DefaultSpec(), paths[0], paths[1:2], []int{1})
	if err != nil {
		return err
	}
	eng := bcp.NewEngine(1)
	cfg := bcp.DefaultProtocolConfig()
	cfg.Sink = sink
	net := bcp.NewProtocol(eng, mgr, cfg)
	if err := net.StartTraffic(conn.ID, 500); err != nil {
		return err
	}
	fail := conn.Primary.Path.Links()[2]
	eng.At(bcp.Time(50*time.Millisecond), func() { net.FailLink(fail) })
	eng.RunFor(time.Second)
	if len(net.SourceSwitches(conn.ID)) != 1 {
		return fmt.Errorf("scenario did not recover")
	}
	return nil
}

// runLiveRecoveryTrial boots one fresh live network on the wall-clock
// runtime (3x3 mesh, nine daemon actors, pipe transport), crashes the
// primary's middle link, and returns the measured failure→data-resumption
// delay: from the instant FailLink runs to the first data message the
// destination sees after the source switched to the backup.
func runLiveRecoveryTrial(seed int64) (time.Duration, error) {
	g := bcp.NewMesh(3, 3, 10)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	paths := bcp.SequentialDisjointPaths(g, 0, bcp.NodeID(g.NumNodes()-1), 2, bcp.RoutingConstraint{})
	if len(paths) < 2 {
		return 0, fmt.Errorf("no disjoint paths on the mesh")
	}
	conn, err := mgr.EstablishOnPaths(bcp.DefaultSpec(), paths[0], paths[1:2], []int{1})
	if err != nil {
		return 0, err
	}
	rt := bcp.NewRealtimeRuntime(seed)
	rt.StartActors(g.NumNodes(), 1024)
	defer rt.Stop()
	tr := bcp.NewPipeTransport(rt.Post, 1024)
	defer tr.Close()
	var net *bcp.Protocol
	rt.Exec(func() { net = bcp.NewProtocolOn(rt, tr, mgr, cfgLive()) })
	var startErr error
	rt.Exec(func() { startErr = net.StartTraffic(conn.ID, 500) })
	if startErr != nil {
		return 0, startErr
	}
	wait := func(what string, cond func() bool) error {
		limit := time.Now().Add(10 * time.Second)
		for {
			var ok bool
			rt.Exec(func() { ok = cond() })
			if ok {
				return nil
			}
			if time.Now().After(limit) {
				return fmt.Errorf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := wait("pre-failure data", func() bool { return net.Stats().DataDelivered >= 20 }); err != nil {
		return 0, err
	}
	links := conn.Primary.Path.Links()
	fail := links[len(links)/2]
	var failAt bcp.Time
	rt.Exec(func() {
		failAt = rt.Now()
		net.FailLink(fail)
	})
	if err := wait("source switch", func() bool { return len(net.SourceSwitches(conn.ID)) == 1 }); err != nil {
		return 0, err
	}
	var switchAt, resumeAt bcp.Time
	rt.Exec(func() { switchAt = net.SourceSwitches(conn.ID)[0] })
	if err := wait("data resumption", func() bool {
		at, ok := net.FirstArrivalAfter(conn.ID, switchAt)
		resumeAt = at
		return ok
	}); err != nil {
		return 0, err
	}
	return resumeAt.Sub(failAt), nil
}

// cfgLive is the live kernels' protocol config: default timing, immediate
// detection (the delay of interest is recovery, not the detector).
func cfgLive() bcp.ProtocolConfig {
	cfg := bcp.DefaultProtocolConfig()
	cfg.DetectionLatency = 0
	return cfg
}

// percentile returns the p-th percentile (nearest-rank) of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// runSmoke is the CI guard behind -smoke: each hot kernel runs a handful of
// times under testing.AllocsPerRun and must stay below its allocation
// ceiling. The ceilings are intentionally loose (≈2× current steady state)
// — they catch a pooled path regressing to per-op allocation, not noise.
func runSmoke(seed int64) int {
	type check struct {
		name    string
		ceiling float64 // allocs per op
		runs    int
		fn      func() error
	}
	var checks []check

	// TimerWheel: schedule/cancel/fire churn over a standing population.
	{
		eng := bcp.NewEngine(seed)
		noop := func() {}
		timers := make([]bcp.Timer, 256)
		for i := range timers {
			timers[i] = eng.Schedule(time.Hour+time.Duration(i)*time.Millisecond, noop)
		}
		i := 0
		checks = append(checks, check{name: "TimerWheel", ceiling: 0, runs: 1000, fn: func() error {
			j := i % len(timers)
			i++
			timers[j].Stop()
			timers[j] = eng.Schedule(time.Hour, noop)
			eng.Schedule(time.Microsecond, noop)
			eng.Step()
			return nil
		}})
	}

	// FailureTrial and SingleEstablish share one loaded 4032-connection plan
	// (trials are pure reads; the establish check tears down what it adds).
	{
		mgr := loadedManager()
		f := bcp.SingleNode(27)
		checks = append(checks, check{name: "FailureTrial", ceiling: 4, runs: 10, fn: func() error {
			if stats := mgr.Trial(f, bcp.OrderByConn, nil); stats.FailedPrimaries == 0 {
				return fmt.Errorf("no failures")
			}
			return nil
		}})

		// SingleEstablish: one plan+commit establishment plus its teardown on
		// the loaded plan. The plan phase runs on reusable arenas, so only the
		// objects that outlive the call may allocate (measured 9).
		checks = append(checks, check{name: "SingleEstablish", ceiling: 14, runs: 50, fn: func() error {
			conn, err := mgr.Establish(0, 36, bcp.DefaultSpec(), []int{3})
			if err != nil {
				return err
			}
			return mgr.Teardown(conn.ID)
		}})
	}

	// EstablishBatch: the pipelined establishment path end to end — a full
	// 4x4-torus all-pairs batch at 4 planners, then its teardown. Guards the
	// pooled plan buffers, planner contexts, and router leases: a leak shows
	// up as per-request allocation growth across batches (measured 2179).
	{
		g := bcp.NewTorus(4, 4, 200)
		mgr := bcp.NewManager(g, bcp.DefaultConfig())
		wl := bcp.AllPairs(g, bcp.DefaultSpec(), []int{3})
		reqs := make([]bcp.EstablishRequest, len(wl))
		for i, r := range wl {
			reqs[i] = bcp.EstablishRequest{Src: r.Src, Dst: r.Dst, Spec: r.Spec, Degrees: r.Degrees}
		}
		checks = append(checks, check{name: "EstablishBatch", ceiling: 4200, runs: 5, fn: func() error {
			res := mgr.EstablishBatch(reqs, bcp.BatchOptions{Workers: 4})
			if res.Established != len(reqs) {
				return fmt.Errorf("established %d of %d", res.Established, len(reqs))
			}
			for _, c := range res.Conns {
				if err := mgr.Teardown(c.ID); err != nil {
					return err
				}
			}
			return nil
		}})
	}

	// RecoveryStorm: one crash→switch→repair→rejoin cycle, warmed.
	{
		storm, err := bcp.NewStorm(bcp.StormConfig{Seed: seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcpbench: storm setup: %v\n", err)
			return 1
		}
		if err := storm.Run(2); err != nil {
			fmt.Fprintf(os.Stderr, "bcpbench: storm warmup: %v\n", err)
			return 1
		}
		checks = append(checks, check{name: "RecoveryStorm", ceiling: 50, runs: 5, fn: storm.Cycle})
	}

	// RecoveryStormWide: one mass-failure cycle (a transit-node crash and
	// its restoration) on the loaded torus, warmed through a full victim
	// rotation. A cycle legitimately allocates: the expired channels are
	// re-established by replenishment (~120 establishments) and the data
	// plane appends latency samples (measured ≈1500; the per-entry Π slices
	// the bit matrix replaced regrew by append on every rejoin and cost
	// ≈8700 more). The ceiling guards the dispatch machinery around that —
	// a per-control staging leak or an unpooled fan-out buffer multiplies by
	// the hundreds of controls per cycle and blows well past it.
	{
		sw, err := bcp.NewStormWide(bcp.StormWideConfig{Seed: seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcpbench: storm-wide setup: %v\n", err)
			return 1
		}
		if err := sw.Run(len(sw.Victims)); err != nil {
			fmt.Fprintf(os.Stderr, "bcpbench: storm-wide warmup: %v\n", err)
			return 1
		}
		checks = append(checks, check{name: "RecoveryStormWide", ceiling: 3000, runs: 4, fn: sw.Cycle})
	}

	// ProtocolTrace: the full message-level scenario with a nil sink.
	checks = append(checks, check{name: "ProtocolTrace", ceiling: 8000, runs: 1, fn: func() error {
		return runProtocolScenario(nil)
	}})

	failed := false
	for _, c := range checks {
		var err error
		allocs := testing.AllocsPerRun(c.runs, func() {
			if e := c.fn(); e != nil && err == nil {
				err = e
			}
		})
		switch {
		case err != nil:
			fmt.Printf("FAIL  %-16s %v\n", c.name, err)
			failed = true
		case allocs > c.ceiling:
			fmt.Printf("FAIL  %-16s %.1f allocs/op exceeds ceiling %.0f\n", c.name, allocs, c.ceiling)
			failed = true
		default:
			fmt.Printf("ok    %-16s %.1f allocs/op (ceiling %.0f)\n", c.name, allocs, c.ceiling)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runStormAB is the batched-vs-per-message restoration A/B (-ab): both
// engines run the RecoveryStormWide crash phase in the same process on the
// same box, so the ratio between them is meaningful even where absolute
// ns/op is not (shared CI runners, cross-box recordings). It prints a
// benchstat-style two-row table and enforces the batching floors — batched
// restoration must be at least 2x faster and 5x leaner per crash phase than
// the per-message baseline — failing the run (exit 1) on a regression that
// re-serializes the fan-out.
func runStormAB(seed int64) int {
	run := func(perMsg bool) (Result, error) {
		sw, err := bcp.NewStormWide(bcp.StormWideConfig{Seed: seed, PerMessageDispatch: perMsg})
		if err != nil {
			return Result{}, err
		}
		if err := sw.Run(len(sw.Victims)); err != nil {
			return Result{}, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := sw.CrashPhase()
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := sw.RepairPhase(v); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
		if r.N == 0 {
			return Result{}, fmt.Errorf("benchmark aborted")
		}
		return Result{
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		}, nil
	}
	batched, err := run(false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcpbench: storm A/B batched: %v\n", err)
		return 1
	}
	perMsg, err := run(true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcpbench: storm A/B per-message: %v\n", err)
		return 1
	}
	nsRatio := perMsg.NsPerOp / batched.NsPerOp
	allocRatio := float64(perMsg.AllocsPerOp) / float64(batched.AllocsPerOp)
	fmt.Printf("RecoveryStormWide crash phase, same box (N=%d/%d):\n", batched.N, perMsg.N)
	fmt.Printf("  %-14s %14s %12s\n", "", "ns/op", "allocs/op")
	fmt.Printf("  %-14s %14.0f %12d\n", "batched", batched.NsPerOp, batched.AllocsPerOp)
	fmt.Printf("  %-14s %14.0f %12d\n", "per-message", perMsg.NsPerOp, perMsg.AllocsPerOp)
	fmt.Printf("  %-14s %13.1fx %11.1fx   (floors: 2.0x ns, 5.0x allocs)\n", "ratio", nsRatio, allocRatio)
	if nsRatio < 2 || allocRatio < 5 {
		fmt.Printf("FAIL  batched dispatch lost its edge over the per-message baseline\n")
		return 1
	}
	fmt.Printf("ok    storm A/B\n")
	return 0
}

func main() {
	label := flag.String("label", "pr1", "output label: results go to BENCH_<label>.json")
	compare := flag.String("compare", "", "baseline BENCH_*.json to diff against")
	workers := flag.Int("workers", 0, "if > 1, also benchmark a parallel Table 1 column at this pool size")
	seed := flag.Int64("seed", 1, "seed for the randomized kernel inputs (DisjointPair)")
	smoke := flag.Bool("smoke", false, "run each hot kernel once under its allocation ceiling and exit (CI guard; no JSON output)")
	ab := flag.Bool("ab", false, "run the batched-vs-per-message storm A/B and enforce the batching floors (CI guard; no JSON output)")
	count := flag.Int("count", 1, "benchmark rounds per kernel; the fastest round is recorded")
	flag.Parse()
	if *count > 0 {
		benchCount = *count
	}

	if *smoke {
		os.Exit(runSmoke(*seed))
	}
	if *ab {
		os.Exit(runStormAB(*seed))
	}

	// Resolve the baseline before measuring anything, so a bad -compare is
	// reported in milliseconds, not after minutes of benchmarking. A
	// missing or corrupt baseline is not fatal: the run degrades to
	// absolute numbers (no deltas), which is what a fresh checkout or a
	// renamed baseline file wants anyway.
	var baseline *File
	if *compare != "" {
		if base, err := os.ReadFile(*compare); err != nil {
			fmt.Fprintf(os.Stderr, "bcpbench: warning: %v; reporting absolute numbers only\n", err)
		} else {
			var bf File
			if err := json.Unmarshal(base, &bf); err != nil {
				fmt.Fprintf(os.Stderr, "bcpbench: warning: bad baseline %s: %v; reporting absolute numbers only\n", *compare, err)
			} else {
				baseline = &bf
			}
		}
	}

	var results []Result

	results = append(results, measure("EstablishAllPairs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := bcp.NewTorus(8, 8, 200)
			mgr := bcp.NewManager(g, bcp.DefaultConfig())
			est, _ := bcp.EstablishWorkload(mgr, bcp.AllPairs(g, bcp.DefaultSpec(), []int{3}))
			if est != 4032 {
				b.Fatalf("established %d", est)
			}
		}
	}))
	fmt.Fprintf(os.Stderr, "EstablishAllPairs done\n")

	mgr := loadedManager()
	results = append(results, measure("SingleEstablish", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			conn, err := mgr.Establish(0, 36, bcp.DefaultSpec(), []int{3})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := mgr.Teardown(conn.ID); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}))
	fmt.Fprintf(os.Stderr, "SingleEstablish done\n")

	// EstablishBatch: the same 4032-pair workload as EstablishAllPairs through
	// the speculative plan/commit pipeline (results bit-identical to the
	// sequential loop) at increasing planner pool widths. On a multi-core box
	// ns/op should shrink with workers (the read-only plan phase is ~80% of
	// establishment); on a single core the pipeline can only add scheduling
	// overhead, so compare the widths against each other, not just w1.
	batchWidths := []int{1, 4, runtime.GOMAXPROCS(0)}
	if *workers > 1 {
		batchWidths = append(batchWidths, *workers)
	}
	seenBatch := map[int]bool{}
	for _, w := range batchWidths {
		if w < 1 || seenBatch[w] {
			continue
		}
		seenBatch[w] = true
		w := w
		results = append(results, measure(fmt.Sprintf("EstablishBatch-w%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := bcp.NewTorus(8, 8, 200)
				batchMgr := bcp.NewManager(g, bcp.DefaultConfig())
				est, _ := bcp.EstablishWorkloadBatch(batchMgr, bcp.AllPairs(g, bcp.DefaultSpec(), []int{3}), w)
				if est != 4032 {
					b.Fatalf("established %d", est)
				}
			}
		}))
	}
	fmt.Fprintf(os.Stderr, "EstablishBatch done\n")

	// Routing kernels: the Router's scratch-backed searches on the bare
	// torus, without establishment state. RoutingAllPairs covers every
	// ordered pair with a cached-SPT distance lookup plus a constrained
	// shortest-path search (4032 + 4032 queries per op).
	g := bcp.NewTorus(8, 8, 200)
	router := bcp.NewRouter(g)
	results = append(results, measure("RoutingAllPairs", func(b *testing.B) {
		n := g.NumNodes()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s == d {
						continue
					}
					src, dst := bcp.NodeID(s), bcp.NodeID(d)
					if router.Distance(src, dst) < 0 {
						b.Fatalf("disconnected pair %d->%d", s, d)
					}
					if _, ok := router.ShortestLinks(src, dst, bcp.RoutingConstraint{}); !ok {
						b.Fatalf("no path %d->%d", s, d)
					}
				}
			}
		}
	}))
	fmt.Fprintf(os.Stderr, "RoutingAllPairs done\n")

	// DisjointPair: one max-flow disjoint-pair search per op, over a seeded
	// random sample of node pairs (a torus has 4 disjoint paths everywhere,
	// so count=2 always succeeds).
	pairRng := rand.New(rand.NewSource(*seed))
	type pair struct{ s, d bcp.NodeID }
	pairs := make([]pair, 64)
	for i := range pairs {
		s := pairRng.Intn(g.NumNodes())
		d := pairRng.Intn(g.NumNodes())
		if s == d {
			d = (d + 1) % g.NumNodes()
		}
		pairs[i] = pair{bcp.NodeID(s), bcp.NodeID(d)}
	}
	results = append(results, measure("DisjointPair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if got := router.DisjointLinks(p.s, p.d, 2, bcp.RoutingConstraint{}); len(got) != 2 {
				b.Fatalf("pair %d->%d: %d disjoint paths, want 2", p.s, p.d, len(got))
			}
		}
	}))
	fmt.Fprintf(os.Stderr, "DisjointPair done\n")

	trialMgr := loadedManager()
	f := bcp.SingleNode(27)
	results = append(results, measure("FailureTrial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stats := trialMgr.Trial(f, bcp.OrderByConn, nil)
			if stats.FailedPrimaries == 0 {
				b.Fatal("no failures")
			}
		}
	}))
	fmt.Fprintf(os.Stderr, "FailureTrial done\n")

	// SweepParallel: the full single-link failure sweep (224 trials) over the
	// shared plan of one loaded manager, at increasing pool widths. Workers
	// trial through per-goroutine TrialViews — no per-worker establishment —
	// so ns/op should shrink with the pool while B/op stays flat.
	sweepFailures := bcp.AllSingleLinkFailures(trialMgr.Graph())
	sweepWidths := []int{1, 4, runtime.GOMAXPROCS(0)}
	if *workers > 1 {
		sweepWidths = append(sweepWidths, *workers)
	}
	seen := map[int]bool{}
	for _, w := range sweepWidths {
		if w < 1 || seen[w] {
			continue
		}
		seen[w] = true
		opts := bcp.DefaultExperimentOptions()
		opts.Workers = w
		results = append(results, measure(fmt.Sprintf("SweepParallel-w%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := bcp.SweepParallel(trialMgr, sweepFailures, opts)
				if res.Trials != len(sweepFailures) {
					b.Fatalf("ran %d trials, want %d", res.Trials, len(sweepFailures))
				}
			}
		}))
	}
	fmt.Fprintf(os.Stderr, "SweepParallel done\n")

	// ProtocolTrace: one full message-level recovery scenario — an 8-hop
	// torus connection under 500 msg/s of data traffic, a mid-primary link
	// crash at 50 ms, one simulated second end to end. The nil-sink variant
	// is the zero-overhead guard for the observability layer (every trace
	// emission sits behind a disabled-emitter branch); the recorded variant
	// prices full event capture.
	runProtocol := func(b *testing.B, sink bcp.TraceSink) {
		if err := runProtocolScenario(sink); err != nil {
			b.Fatal(err)
		}
	}
	results = append(results, measure("ProtocolTrace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runProtocol(b, nil)
		}
	}))
	results = append(results, measure("ProtocolTraceRecorded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runProtocol(b, &bcp.TraceRecorder{})
		}
	}))
	fmt.Fprintf(os.Stderr, "ProtocolTrace done\n")

	// TimerWheel: the simulation executive's hot loop in isolation. Each op
	// replaces one timer deep in a 1024-strong standing population (an
	// O(log n) mid-heap cancel plus a push) and schedules-and-fires one
	// short timer — the schedule/cancel/fire churn every protocol daemon
	// puts through the engine. Steady state must be allocation-free.
	results = append(results, measure("TimerWheel", func(b *testing.B) {
		eng := bcp.NewEngine(*seed)
		noop := func() {}
		const standing = 1024
		horizon := time.Hour
		timers := make([]bcp.Timer, standing)
		for i := range timers {
			timers[i] = eng.Schedule(horizon+time.Duration(i)*time.Millisecond, noop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % standing
			timers[j].Stop()
			timers[j] = eng.Schedule(horizon, noop)
			eng.Schedule(time.Microsecond, noop)
			eng.Step() // fires the short timer; the standing set stays put
		}
	}))
	fmt.Fprintf(os.Stderr, "TimerWheel done\n")

	// RecoveryStorm: one full crash→switch→repair→rejoin cycle against a
	// long-lived protocol network (control plane only, so the measurement
	// is pure recovery work). The network is built and warmed outside the
	// timed region; after warmup a cycle should run entirely on recycled
	// timers, frames, and scratch.
	storm, err := bcp.NewStorm(bcp.StormConfig{Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcpbench: storm setup: %v\n", err)
		os.Exit(1)
	}
	if err := storm.Run(2); err != nil {
		fmt.Fprintf(os.Stderr, "bcpbench: storm warmup: %v\n", err)
		os.Exit(1)
	}
	results = append(results, measure("RecoveryStorm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := storm.Cycle(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	fmt.Fprintf(os.Stderr, "RecoveryStorm done\n")

	// RecoveryStormWide: the mass-failure storm — one cycle crashes an
	// entire transit node of a loaded network (thousands of connections,
	// hundreds of affected channels), runs the report/activation wave, then
	// repairs and replenishes back to full redundancy. The timed region is
	// the restoration storm (CrashPhase); the repair/replenish half runs
	// with the timer stopped — re-establishing the expired channels is
	// identical establishment work in every engine and would drown the
	// dispatch signal. Three kernels share the shape: the batched dispatch
	// engine on the paper's torus, the same torus on the per-message engine
	// (the A/B baseline for the batching work — compare these two on the
	// same box), and the batched engine on the 256-node mesh for scale. The
	// p50/p99 rows are the sampled failure→source-switch latencies from the
	// batched torus run — the service-interruption distribution under mass
	// failure (simulated time, so deterministic; alloc columns are
	// meaningless and left zero).
	newWideStorm := func(b *testing.B, cfg bcp.StormWideConfig) *bcp.StormWide {
		b.Helper()
		sw, err := bcp.NewStormWide(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.Run(len(sw.Victims)); err != nil { // one full rotation warms every victim
			b.Fatal(err)
		}
		return sw
	}
	crashPhases := func(b *testing.B, sw *bcp.StormWide) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := sw.CrashPhase()
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := sw.RepairPhase(v); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	var wideLatencies []time.Duration
	results = append(results, measure("RecoveryStormWide", func(b *testing.B) {
		sw := newWideStorm(b, bcp.StormWideConfig{Seed: *seed})
		crashPhases(b, sw)
		b.StopTimer()
		wideLatencies = wideLatencies[:0]
		for _, d := range sw.Latencies() {
			wideLatencies = append(wideLatencies, time.Duration(d))
		}
	}))
	fmt.Fprintf(os.Stderr, "RecoveryStormWide done\n")
	results = append(results, measure("RecoveryStormWide-permsg", func(b *testing.B) {
		sw := newWideStorm(b, bcp.StormWideConfig{Seed: *seed, PerMessageDispatch: true})
		crashPhases(b, sw)
	}))
	fmt.Fprintf(os.Stderr, "RecoveryStormWide-permsg done\n")
	results = append(results, measure("RecoveryStormWide-mesh256", func(b *testing.B) {
		sw := newWideStorm(b, bcp.StormWideConfig{Seed: *seed, Mesh: true})
		crashPhases(b, sw)
	}))
	fmt.Fprintf(os.Stderr, "RecoveryStormWide-mesh256 done\n")
	if len(wideLatencies) > 0 {
		results = append(results,
			Result{Name: "RecoveryStormWide-p50", N: len(wideLatencies), NsPerOp: float64(percentile(wideLatencies, 0.50))},
			Result{Name: "RecoveryStormWide-p99", N: len(wideLatencies), NsPerOp: float64(percentile(wideLatencies, 0.99))},
		)
	}

	// LiveRecovery: the recovery scenario off the simulator — nine daemons
	// as wall-clock actors, data over in-memory pipes, a real crash, and
	// the measured failure→data-resumption delay. Wall-clock measurements
	// do not average like CPU kernels, so this one is recorded as p50/p99
	// over fresh-network trials (ns_per_op holds the percentile; N the
	// trial count; alloc columns are meaningless and left zero).
	{
		const liveTrials = 20
		delays := make([]time.Duration, 0, liveTrials)
		for i := 0; i < liveTrials; i++ {
			d, err := runLiveRecoveryTrial(*seed + int64(i))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bcpbench: live recovery trial %d: %v\n", i, err)
				os.Exit(1)
			}
			delays = append(delays, d)
		}
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		results = append(results,
			Result{Name: "LiveRecovery-p50", N: liveTrials, NsPerOp: float64(percentile(delays, 0.50))},
			Result{Name: "LiveRecovery-p99", N: liveTrials, NsPerOp: float64(percentile(delays, 0.99))},
		)
		fmt.Fprintf(os.Stderr, "LiveRecovery done\n")
	}

	if *workers > 1 {
		opts := bcp.DefaultExperimentOptions()
		opts.DoubleNodeSample = 200
		opts.Workers = *workers
		results = append(results, measure(fmt.Sprintf("Table1Column-w%d", *workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bcp.RunTable1(bcp.Torus8x8, 1, []int{3}, opts)
				if len(res.Columns) != 1 {
					b.Fatal("wrong shape")
				}
			}
		}))
		fmt.Fprintf(os.Stderr, "Table1Column done\n")
	}

	out := File{
		Label:   *label,
		Date:    time.Now().UTC().Format(time.RFC3339),
		Results: results,
	}
	if baseline != nil {
		out.Baseline = baseline.Label
		byName := make(map[string]Result, len(baseline.Results))
		for _, r := range baseline.Results {
			byName[r.Name] = r
		}
		// Deltas are computed only for kernels present in both runs, matched
		// by name. Anything one-sided is called out so a renamed or retired
		// kernel cannot silently vanish from the comparison.
		current := make(map[string]bool, len(out.Results))
		for i := range out.Results {
			r := &out.Results[i]
			current[r.Name] = true
			b, ok := byName[r.Name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bcpbench: warning: kernel %s has no entry in baseline %s (new kernel?); no delta\n", r.Name, *compare)
				continue
			}
			if b.NsPerOp > 0 {
				d := clampDelta(100 * (r.NsPerOp - b.NsPerOp) / b.NsPerOp)
				r.DeltaNsPct = &d
			}
			if b.BytesPerOp > 0 {
				d := clampDelta(100 * float64(r.BytesPerOp-b.BytesPerOp) / float64(b.BytesPerOp))
				r.DeltaBytesPct = &d
			}
			if b.AllocsPerOp > 0 {
				d := clampDelta(100 * float64(r.AllocsPerOp-b.AllocsPerOp) / float64(b.AllocsPerOp))
				r.DeltaAllocsPct = &d
			}
		}
		for _, r := range baseline.Results {
			if !current[r.Name] {
				fmt.Fprintf(os.Stderr, "bcpbench: warning: baseline kernel %s was not run (renamed or retired?); no delta\n", r.Name)
			}
		}
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcpbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	path := fmt.Sprintf("BENCH_%s.json", *label)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bcpbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
	pct := func(p *float64) string {
		if p == nil {
			return ""
		}
		return fmt.Sprintf(" (%+.1f%%)", *p)
	}
	for _, r := range out.Results {
		suffix := ""
		if r.DeltaNsPct != nil || r.DeltaBytesPct != nil || r.DeltaAllocsPct != nil {
			suffix = fmt.Sprintf("  vs %s: ns%s B%s allocs%s",
				out.Baseline, pct(r.DeltaNsPct), pct(r.DeltaBytesPct), pct(r.DeltaAllocsPct))
		}
		fmt.Printf("%-24s %12.0f ns/op %12d B/op %9d allocs/op%s\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, suffix)
	}
}
