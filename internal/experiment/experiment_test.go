package experiment

import (
	"math"
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
