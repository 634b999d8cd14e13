package bcp_test

// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus micro-benchmarks of the kernels they exercise. Scale notes: each
// table benchmark runs one full establishment + failure sweep per iteration
// (seconds each); run with -benchtime=1x for a single regeneration, or use
// cmd/bcpsim to print the actual rows. Paper-vs-measured values are recorded
// in EXPERIMENTS.md.

import (
	"testing"
	"time"

	"github.com/rtcl/bcp"
)

func benchOpts() bcp.ExperimentOptions {
	opts := bcp.DefaultExperimentOptions()
	opts.DoubleNodeSample = 200 // keep the 2016-pair sweep bounded per iteration
	return opts
}

// --- Table 1: R_fast with uniform multiplexing degrees ------------------

func BenchmarkTable1TorusSingle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunTable1(bcp.Torus8x8, 1, []int{1, 3, 5, 6}, benchOpts())
		if len(res.Columns) != 4 {
			b.Fatal("wrong shape")
		}
	}
}

func BenchmarkTable1TorusDouble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunTable1(bcp.Torus8x8, 2, []int{3, 5, 6}, benchOpts())
		if len(res.Columns) != 3 {
			b.Fatal("wrong shape")
		}
	}
}

func BenchmarkTable1Mesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunTable1(bcp.Mesh8x8, 1, []int{1, 3, 5, 6}, benchOpts())
		if len(res.Columns) != 4 {
			b.Fatal("wrong shape")
		}
	}
}

// --- Table 2: mixed degrees with priority activation ---------------------

func BenchmarkTable2TorusSingle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunTable2(bcp.Torus8x8, 1, []int{1, 3, 5, 6}, benchOpts())
		if res.Established == 0 {
			b.Fatal("nothing established")
		}
	}
}

func BenchmarkTable2TorusDouble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunTable2(bcp.Torus8x8, 2, []int{1, 3, 5, 6}, benchOpts())
		if res.Established == 0 {
			b.Fatal("nothing established")
		}
	}
}

func BenchmarkTable2Mesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunTable2(bcp.Mesh8x8, 1, []int{1, 3, 5, 6}, benchOpts())
		if res.Established == 0 {
			b.Fatal("nothing established")
		}
	}
}

// --- Table 3: brute-force multiplexing baseline ---------------------------

func BenchmarkTable3Torus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunTable3(bcp.Torus8x8, []int{1, 3, 5, 6}, benchOpts())
		if len(res.Columns) != 4 {
			b.Fatal("wrong shape")
		}
	}
}

func BenchmarkTable3Mesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunTable3(bcp.Mesh8x8, []int{1, 3, 5, 6}, benchOpts())
		if len(res.Columns) != 4 {
			b.Fatal("wrong shape")
		}
	}
}

// --- Figure 9: spare bandwidth vs network load ----------------------------

func BenchmarkFigure9Torus1B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunFigure9(bcp.Torus8x8, 1, []int{0, 1, 3, 5, 6}, 256, benchOpts())
		if len(res.Series) != 5 {
			b.Fatal("wrong shape")
		}
	}
}

func BenchmarkFigure9Torus2B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunFigure9(bcp.Torus8x8, 2, []int{3, 5, 6}, 256, benchOpts())
		if len(res.Series) != 3 {
			b.Fatal("wrong shape")
		}
	}
}

func BenchmarkFigure9Mesh1B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunFigure9(bcp.Mesh8x8, 1, []int{0, 1, 3, 5, 6}, 256, benchOpts())
		if len(res.Series) != 5 {
			b.Fatal("wrong shape")
		}
	}
}

// --- Figure 3: reliability models ------------------------------------------

func BenchmarkFigure3Reliability(b *testing.B) {
	horizons := []float64{1, 10, 100, 1000, 10000}
	for i := 0; i < b.N; i++ {
		res := bcp.RunFigure3(4, 6, 1e-5, 100, horizons)
		if len(res.Markov.Y) != len(horizons) {
			b.Fatal("wrong shape")
		}
	}
}

// --- Section 5: protocol-level recovery delay ------------------------------

func BenchmarkSection5RecoveryDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunSection5(benchOpts())
		if !res.AllBound {
			b.Fatal("recovery delay exceeded the paper's bound")
		}
	}
}

func BenchmarkSchemeComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunSchemeComparison(benchOpts())
		if len(res.Rows) != 9 {
			b.Fatal("wrong shape")
		}
	}
}

// --- Extensions -------------------------------------------------------------

func BenchmarkHotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bcp.RunHotspot(benchOpts())
		if res.Established == 0 {
			b.Fatal("nothing established")
		}
	}
}

// --- Micro-benchmarks of the kernels the experiments exercise ---------------

// BenchmarkEstablishAllPairs measures the full 4032-connection establishment
// with backup multiplexing at mux=3 — the setup cost of every table.
func BenchmarkEstablishAllPairs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := bcp.NewTorus(8, 8, 200)
		mgr := bcp.NewManager(g, bcp.DefaultConfig())
		reqs := bcp.AllPairs(g, bcp.DefaultSpec(), []int{3})
		est, _ := bcp.EstablishWorkload(mgr, reqs)
		if est != 4032 {
			b.Fatalf("established %d", est)
		}
	}
}

// BenchmarkSingleEstablish measures one D-connection setup on a loaded
// network (routing + admission + multiplexing).
func BenchmarkSingleEstablish(b *testing.B) {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	reqs := bcp.AllPairs(g, bcp.DefaultSpec(), []int{3})
	bcp.EstablishWorkload(mgr, reqs[:2000])
	b.ReportAllocs()
	b.ResetTimer()
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
}

// BenchmarkFailureTrial measures one single-node failure trial on the fully
// loaded torus — the inner loop of the R_fast sweeps.
func BenchmarkFailureTrial(b *testing.B) {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	bcp.EstablishWorkload(mgr, bcp.AllPairs(g, bcp.DefaultSpec(), []int{3}))
	f := bcp.SingleNode(27)
	view := mgr.NewTrialView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := view.Trial(f, bcp.OrderByConn, nil)
		if stats.FailedPrimaries == 0 {
			b.Fatal("no failures")
		}
	}
}

// BenchmarkTrialSweep measures the paper's Table 1 inner loop on the fully
// loaded torus: all 256 single-link and 64 single-node failure trials through
// one TrialView. One op is the whole sweep.
func BenchmarkTrialSweep(b *testing.B) {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	bcp.EstablishWorkload(mgr, bcp.AllPairs(g, bcp.DefaultSpec(), []int{3}))
	var fs []bcp.Failure
	for _, l := range g.Links() {
		fs = append(fs, bcp.SingleLink(l.ID))
	}
	for n := 0; n < g.NumNodes(); n++ {
		fs = append(fs, bcp.SingleNode(bcp.NodeID(n)))
	}
	view := mgr.NewTrialView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		failed := 0
		for _, f := range fs {
			failed += view.Trial(f, bcp.OrderByConn, nil).FailedPrimaries
		}
		if failed == 0 {
			b.Fatal("no failures")
		}
	}
}

// BenchmarkProtocolRecovery measures one message-level failure recovery
// (detection -> reports -> activation -> promotion) end to end.
func BenchmarkProtocolRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := bcp.NewTorus(8, 8, 200)
		mgr := bcp.NewManager(g, bcp.DefaultConfig())
		conn, err := mgr.Establish(0, 36, bcp.DefaultSpec(), []int{1})
		if err != nil {
			b.Fatal(err)
		}
		eng := bcp.NewEngine(1)
		proto := bcp.NewProtocol(eng, mgr, bcp.DefaultProtocolConfig())
		if err := proto.StartTraffic(conn.ID, 1000); err != nil {
			b.Fatal(err)
		}
		eng.At(bcp.Time(50*time.Millisecond), func() {
			proto.FailLink(conn.Primary.Path.Links()[3])
		})
		eng.RunFor(500 * time.Millisecond)
		if len(proto.SourceSwitches(conn.ID)) != 1 {
			b.Fatal("no recovery")
		}
	}
}
