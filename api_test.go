package bcp_test

// Black-box tests of the public facade: everything an adopter of the
// library touches, exercised end to end through the package bcp API only.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/bcp"
)

func TestPublicQuickstartFlow(t *testing.T) {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())

	conn, err := mgr.Establish(0, 36, bcp.DefaultSpec(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if conn.Primary == nil || len(conn.Backups) != 1 {
		t.Fatal("connection incomplete")
	}
	if !conn.Primary.Path.ComponentDisjoint(conn.Backups[0].Path) {
		t.Fatal("channels not disjoint")
	}
	if pr := mgr.ConnectionPr(conn); pr < 0.999 || pr > 1 {
		t.Fatalf("Pr = %g", pr)
	}

	// Transactional failure trial.
	stats := mgr.NewTrialView().Trial(bcp.SingleLink(conn.Primary.Path.Links()[0]), bcp.OrderByConn, nil)
	if stats.RFast() != 1 {
		t.Fatalf("RFast = %g", stats.RFast())
	}

	// Message-level recovery.
	eng := bcp.NewEngine(1)
	proto := bcp.NewProtocol(eng, mgr, bcp.DefaultProtocolConfig())
	if err := proto.StartTraffic(conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	eng.At(bcp.Time(50*time.Millisecond), func() {
		proto.FailLink(conn.Primary.Path.Links()[2])
	})
	eng.RunFor(500 * time.Millisecond)
	if len(proto.SourceSwitches(conn.ID)) != 1 {
		t.Fatal("no recovery")
	}
	if proto.Stats().DataDelivered == 0 {
		t.Fatal("no data delivered")
	}
}

func TestPublicTopologyAndRouting(t *testing.T) {
	for _, g := range []*bcp.Graph{
		bcp.NewTorus(4, 4, 100), bcp.NewMesh(3, 5, 100), bcp.NewRing(6, 10),
		bcp.NewLine(4, 10), bcp.NewHypercube(3, 10), bcp.NewRandom(20, 3, 10, 1),
	} {
		if g.NumNodes() == 0 || g.NumLinks() == 0 {
			t.Fatalf("%s empty", g.Name())
		}
	}
	g := bcp.NewTorus(4, 4, 100)
	r := bcp.NewRouter(g)
	if d := r.Distance(0, 5); d != 2 {
		t.Fatalf("distance = %d", d)
	}
	p, ok := r.ShortestPath(0, 5, bcp.RoutingConstraint{})
	if !ok || p.Hops() != 2 {
		t.Fatal("shortest path wrong")
	}
	if seq := r.SequentialDisjointPaths(0, 5, 4, bcp.RoutingConstraint{}); len(seq) == 0 {
		t.Fatal("no disjoint paths")
	}
}

func TestPublicReliabilityMath(t *testing.T) {
	s := bcp.SimultaneousActivation(1e-4, 9, 9, 3)
	if s < 2.9e-4 || s > 3.1e-4 {
		t.Fatalf("S = %g", s)
	}
	if nu := bcp.NuForDegree(1e-4, 3); s >= nu {
		// share 3 components at mux=3: not multiplexed
	} else {
		t.Fatal("threshold semantics wrong")
	}
	pr := bcp.Pr(1e-4, 9, nil)
	if pr <= 0.999 || pr >= 1 {
		t.Fatalf("Pr = %g", pr)
	}
	m := bcp.DConnModel{Lambda1: 1e-3, Lambda2: 1e-3, Mu: 10}
	if r := m.Reliability(10); r < 0.999 || r > 1 {
		t.Fatalf("R(10) = %g", r)
	}
	if b := bcp.MuxFailureBound(0.001, []int{1, 2}); b <= 0 || b >= 1 {
		t.Fatalf("bound = %g", b)
	}
}

func TestPublicWorkloads(t *testing.T) {
	g := bcp.NewTorus(4, 4, 200)
	if got := len(bcp.AllPairs(g, bcp.DefaultSpec(), nil)); got != 240 {
		t.Fatalf("all pairs = %d", got)
	}
	rng := bcp.NewRand(1)
	hs := bcp.HotSpot(g, bcp.HotSpotConfig{
		Draws: 50, HotNodes: []bcp.NodeID{5}, HeavyBandwidth: 3,
		Spec: bcp.DefaultSpec(),
	}, rng)
	if len(hs) == 0 || len(hs) > 50 {
		t.Fatalf("hotspot = %d", len(hs))
	}
}

func TestPublicNegotiatedEstablishment(t *testing.T) {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	conn, err := mgr.EstablishWithPr(0, 36, bcp.DefaultSpec(), 0.9999, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.ConnectionPr(conn) < 0.9999 {
		t.Fatal("negotiated Pr not met")
	}
}

func TestPublicApplyRecovery(t *testing.T) {
	g := bcp.NewTorus(6, 6, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	reqs := bcp.AllPairs(g, bcp.DefaultSpec(), []int{3})
	bcp.EstablishWorkload(mgr, reqs[:300])
	rs, err := mgr.Apply(bcp.SingleNode(7), bcp.OrderByPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.FailedPrimaries == 0 {
		t.Fatal("node 7 hit nothing")
	}
	if err := mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSchemeConstants(t *testing.T) {
	if bcp.Scheme1 == bcp.Scheme2 || bcp.Scheme2 == bcp.Scheme3 {
		t.Fatal("scheme constants collide")
	}
	cfg := bcp.DefaultProtocolConfig()
	cfg.Scheme = bcp.Scheme2
	mgr := bcp.NewManager(bcp.NewTorus(4, 4, 200), bcp.DefaultConfig())
	if _, err := mgr.Establish(0, 5, bcp.DefaultSpec(), []int{1}); err != nil {
		t.Fatal(err)
	}
	proto := bcp.NewProtocol(bcp.NewEngine(1), mgr, cfg)
	if proto == nil {
		t.Fatal("protocol nil")
	}
}

func TestPublicConcurrentSweep(t *testing.T) {
	g := bcp.NewTorus(4, 4, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	if _, rej := bcp.EstablishWorkload(mgr, bcp.AllPairs(g, bcp.DefaultSpec(), []int{3})); rej != 0 {
		t.Fatalf("%d requests rejected", rej)
	}
	failures := bcp.AllSingleLinkFailures(g)
	opts := bcp.DefaultExperimentOptions()
	serial := bcp.Sweep(mgr, failures, opts)
	opts.Workers = 4
	pooled := bcp.Sweep(mgr, failures, opts)
	if serial.RFast != pooled.RFast || serial.Trials != pooled.Trials {
		t.Fatalf("parallel sweep %+v != serial %+v", pooled, serial)
	}

	// A per-goroutine view trials read-only over the manager's shared plan:
	// its trials add up to the sweep's, and no write transaction ran.
	epoch := mgr.PlanEpoch()
	view := mgr.NewTrialView()
	failed := 0
	for _, f := range failures {
		failed += view.Trial(f, bcp.OrderByConn, nil).FailedPrimaries
	}
	if failed != serial.TotalFailedPrimaries {
		t.Fatalf("view trials failed %d primaries, the sweep %d", failed, serial.TotalFailedPrimaries)
	}
	if mgr.PlanEpoch() != epoch {
		t.Fatal("a view trial moved the plan epoch")
	}
}

// facadeTypeOnly lists the type aliases no caller spells as bcp.X, each with
// the kept name whose signature or field needs the type to be nameable.
var facadeTypeOnly = map[string]string{
	"ConnID":          "DConnection.ID",
	"ChannelID":       "Channel.ID",
	"TrafficSpec":     "DefaultSpec",
	"Config":          "DefaultConfig",
	"Channel":         "DConnection.Primary",
	"TrialView":       "Manager.NewTrialView",
	"RecoveryStats":   "TrialView.Trial",
	"ActivationOrder": "OrderByConn",
	"Engine":          "NewEngine",
	"Timer":           "Engine.At",
	"Scheme":          "Scheme1",
	"Runtime":         "NewProtocolOn",
	"Transport":       "NewProtocolOn",
	"RealtimeRuntime": "NewRealtimeRuntime",
	"PipeTransport":   "NewPipeTransport",
	"PostFunc":        "NewPipeTransport",
	"Router":          "NewRouter",
	"Exclusion":       "RoutingConstraint.Exclude",
	"Request":         "AllPairs",
	"Table1Result":    "RunTable1",
	"Table2Result":    "RunTable2",
	"SweepResult":     "Sweep",
}

// TestFacadeIsWhatIsCalled keeps bcp.go to what its callers use: every
// exported name it declares is referenced as bcp.X under examples/ or cmd/ or
// in the root package's three test files, or is a type alias listed above.
func TestFacadeIsWhatIsCalled(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	scan := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "github.com/rtcl/bcp" {
				pkg = "bcp"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, f := range []string{"api_test.go", "example_test.go", "bench_test.go"} {
		scan(f)
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				scan(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	facade, err := parser.ParseFile(fset, "bcp.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	check := func(name *ast.Ident, isType bool) {
		declared[name.Name] = true
		if !name.IsExported() || used[name.Name] || isType && facadeTypeOnly[name.Name] != "" {
			return
		}
		t.Errorf("bcp.%s has no caller in examples/, cmd/ or the root tests", name.Name)
	}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			check(d.Name, false)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					check(s.Name, true)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						check(name, false)
					}
				}
			}
		}
	}
	for name, why := range facadeTypeOnly {
		if !declared[name] || used[name] {
			t.Errorf("facadeTypeOnly lists %s (for %s), which bcp.go no longer declares or a caller now names", name, why)
		}
	}
}
