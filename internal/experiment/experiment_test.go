package experiment

import (
	"math"
	"strings"
	"testing"

	"github.com/rtcl/bcp/internal/baseline"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/workload"
)

func TestNewGraphKinds(t *testing.T) {
	if g := NewGraph(Torus8x8); g.NumNodes() != 64 || g.NumLinks() != 256 {
		t.Fatal("torus wrong")
	}
	if g := NewGraph(Mesh8x8); g.NumNodes() != 64 || g.NumLinks() != 224 {
		t.Fatal("mesh wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind accepted")
		}
	}()
	NewGraph(Kind("bogus"))
}

// TestAllPairsWorkloadCount holds the paper's workload to its numbers: all
// 64·63 pairs admitted on the torus at about a third of its capacity.
func TestAllPairsWorkloadCount(t *testing.T) {
	g := NewGraph(Torus8x8)
	m := core.NewManager(g, DefaultOptions().config())
	est, rej := workload.Establish(m, workload.AllPairs(g, rtchan.DefaultSpec(), nil))
	if est != 4032 || rej != 0 {
		t.Fatalf("est=%d rej=%d", est, rej)
	}
	load := m.Network().NetworkLoad()
	if load < 0.30 || load > 0.36 {
		t.Fatalf("load = %g, paper reports 0.33-0.34", load)
	}
}

func TestFailureEnumerations(t *testing.T) {
	g := NewGraph(Torus8x8)
	if got := len(AllSingleLinkFailures(g)); got != 256 {
		t.Fatalf("link failures = %d", got)
	}
	if got := len(AllSingleNodeFailures(g)); got != 64 {
		t.Fatalf("node failures = %d", got)
	}
	if got := len(AllDoubleNodeFailures(g, 0, 1)); got != 64*63/2 {
		t.Fatalf("double failures = %d", got)
	}
	if got := len(AllDoubleNodeFailures(g, 100, 1)); got != 100 {
		t.Fatalf("sampled double failures = %d", got)
	}
}

// TestTable1TorusMatchesPaperShape is the headline reproduction check: the
// qualitative relationships of Table 1(a) must hold.
func TestTable1TorusMatchesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep")
	}
	opts := DefaultOptions()
	opts.DoubleNodeSample = 200
	res := RunTable1(Torus8x8, 1, []int{1, 3, 5, 6}, opts)
	cols := map[int]AlphaColumn{}
	for _, c := range res.Columns {
		cols[c.Alpha] = c
	}
	// Spare bandwidth decreases with multiplexing degree.
	if !(cols[1].SpareBW > cols[3].SpareBW && cols[3].SpareBW > cols[5].SpareBW && cols[5].SpareBW > cols[6].SpareBW) {
		t.Fatalf("spare ordering broken: %+v", res.Columns)
	}
	// Paper magnitudes (±5 points): 30.25 / 22.5 / 16 / 9.5.
	for alpha, want := range map[int]float64{1: 0.3025, 3: 0.225, 5: 0.16, 6: 0.095} {
		if got := cols[alpha].SpareBW; math.Abs(got-want) > 0.05 {
			t.Errorf("mux=%d spare = %.4f, paper %.4f", alpha, got, want)
		}
	}
	// The guarantees: mux=1 covers all single failures, mux=3 all single
	// link failures.
	if cols[1].OneLink != 1 || cols[1].OneNode != 1 {
		t.Errorf("mux=1 guarantee broken: link=%v node=%v", cols[1].OneLink, cols[1].OneNode)
	}
	if cols[3].OneLink != 1 {
		t.Errorf("mux=3 link guarantee broken: %v", cols[3].OneLink)
	}
	// Coverage degrades with degree and failure severity.
	if !(cols[6].OneLink < cols[5].OneLink && cols[5].OneLink < 1) {
		t.Errorf("link coverage ordering broken")
	}
	if !(cols[5].TwoNodes < cols[5].OneNode) {
		t.Errorf("double failures should be harsher than single")
	}
	// Render must produce a paper-style table.
	out := res.Render()
	if !strings.Contains(out, "mux=6") || !strings.Contains(out, "Spare bandwidth") {
		t.Errorf("render missing columns:\n%s", out)
	}
}

func TestTable2ClassGuaranteesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep")
	}
	opts := DefaultOptions()
	opts.DoubleNodeSample = 100
	res := RunTable2(Torus8x8, 1, []int{1, 3, 5, 6}, opts)
	// Per-connection control: the mux=1 class keeps its single-failure
	// guarantee even in the mixed workload (with priority activation).
	if res.OneLink[1] != 1 || res.OneNode[1] != 1 {
		t.Fatalf("mux=1 class: link=%v node=%v", res.OneLink[1], res.OneNode[1])
	}
	if res.OneLink[3] != 1 {
		t.Fatalf("mux=3 class link coverage = %v", res.OneLink[3])
	}
	// Lower-priority classes absorb the damage.
	if !(res.OneNode[6] < res.OneNode[1]) {
		t.Fatal("class separation missing")
	}
	if out := res.Render(); !strings.Contains(out, "mixed multiplexing") {
		t.Fatal("render broken")
	}
}

func TestBruteForceUniformSizing(t *testing.T) {
	g := NewGraph(Torus8x8)
	m := core.NewManager(g, DefaultOptions().config())
	workload.Establish(m, allPairs(g, 1, 3))
	uniform := baseline.UniformSpareFromManager(m)
	// Average of per-link spare must equal total spare / links.
	var total float64
	for _, l := range g.Links() {
		total += m.Network().Spare(l.ID)
	}
	if math.Abs(uniform-total/256) > 1e-9 {
		t.Fatalf("uniform sizing wrong: %g", uniform)
	}
	bf := baseline.NewBruteForce(m, uniform, true)
	res := Sweep(bf, AllSingleLinkFailures(g)[:32], DefaultOptions())
	if res.RFast <= 0.5 || res.RFast > 1 {
		t.Fatalf("brute-force RFast = %v", res.RFast)
	}
}

func TestFigure9SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	res := RunFigure9(Torus8x8, 1, []int{0, 6}, 1008, DefaultOptions())
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	noMux, mux6 := res.Series[0], res.Series[1]
	// Spare grows with load for both; multiplexing keeps it lower.
	last := len(noMux.Y) - 1
	if noMux.Y[last] <= noMux.Y[0] {
		t.Fatal("no-mux spare did not grow with load")
	}
	if mux6.Y[last] >= noMux.Y[last] {
		t.Fatal("multiplexing did not reduce spare")
	}
	// The paper: each unmultiplexed backup costs more than the primary
	// network load (backup paths are at least as long).
	finalLoad := noMux.X[last]
	if noMux.Y[last] < finalLoad {
		t.Fatalf("no-mux spare %.3f below load %.3f", noMux.Y[last], finalLoad)
	}
	if out := res.Render(); !strings.Contains(out, "mux=0") {
		t.Fatal("render broken")
	}
}

func TestFigure3ModelsAgree(t *testing.T) {
	res := RunFigure3(4, 6, 1e-6, 100, []float64{1, 10, 100})
	if len(res.Markov.Y) != 3 || len(res.Combinatorial.Y) != 3 {
		t.Fatal("series sizes wrong")
	}
	for i := range res.Markov.Y {
		if math.Abs(res.Markov.Y[i]-res.Combinatorial.Y[i]) > 1e-3 {
			t.Fatalf("models diverge at t=%g: %g vs %g",
				res.Markov.X[i], res.Markov.Y[i], res.Combinatorial.Y[i])
		}
		if res.Markov.Y[i] <= 0 || res.Markov.Y[i] > 1 {
			t.Fatalf("reliability out of range: %g", res.Markov.Y[i])
		}
	}
}

func TestSection5AllWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol sweep")
	}
	res := RunSection5(DefaultOptions())
	if !res.AllBound {
		t.Fatalf("recovery delay exceeded the bound:\n%s", res.Render())
	}
	// Γ grows with the failure's distance from the source (single backup).
	var prev Section5Row
	for i, row := range res.Rows {
		if len(row.Violations) != 0 {
			t.Errorf("fail-pos %d (backups=%d): conformance violations %v",
				row.FailPos, row.Backups, row.Violations)
		}
		if row.Backups != 1 {
			continue
		}
		if i > 0 && prev.Backups == 1 && row.Gamma < prev.Gamma {
			t.Fatalf("gamma not monotone at pos %d", row.FailPos)
		}
		prev = row
	}
}

func TestSchemeComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol sweep")
	}
	res := RunSchemeComparison(DefaultOptions())
	byScheme := map[int]map[int]SchemeRow{}
	for _, r := range res.Rows {
		if len(r.Violations) != 0 {
			t.Errorf("scheme %d fail-pos %d: conformance violations %v",
				r.Scheme, r.FailPos, r.Violations)
		}
		if byScheme[int(r.Scheme)] == nil {
			byScheme[int(r.Scheme)] = map[int]SchemeRow{}
		}
		byScheme[int(r.Scheme)][r.FailPos] = r
	}
	// Scheme 1 is never faster than scheme 3 at the source.
	for _, pos := range []int{0, 4, 7} {
		if byScheme[1][pos].Gamma < byScheme[3][pos].Gamma {
			t.Fatalf("scheme 1 beat scheme 3 at pos %d", pos)
		}
	}
	// The advantage of 2/3 over 1 shrinks near the destination (§4.2).
	adv0 := byScheme[1][0].Gamma - byScheme[3][0].Gamma
	adv7 := byScheme[1][7].Gamma - byScheme[3][7].Gamma
	if adv7 >= adv0 {
		t.Fatalf("advantage did not shrink: near-src %v vs near-dst %v", adv0, adv7)
	}
}

func TestHotspotProposedBeatsBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("hotspot sweep")
	}
	res := RunHotspot(DefaultOptions())
	if res.Established < 2000 {
		t.Fatalf("established only %d", res.Established)
	}
	if res.ProposedOneLink <= res.BruteOneLink {
		t.Fatalf("proposed (%v) did not beat brute-force (%v) under hot-spots",
			res.ProposedOneLink, res.BruteOneLink)
	}
	if out := res.Render(); !strings.Contains(out, "brute-force") {
		t.Fatal("render broken")
	}
}
