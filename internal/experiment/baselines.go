package experiment

import (
	"fmt"

	"github.com/rtcl/bcp/internal/baseline"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/workload"
)

// BaselineComparisonResult contrasts BCP against the [BAN93]-style
// recover-by-reestablishment approach of §8 under a saturating offered load
// (three all-pairs rounds, ~96% of capacity if fully admitted): BCP trades
// admitted connections for reserved spare and bounded, guaranteed recovery;
// re-establishment admits more but recovery collapses exactly when the
// network is busy — the paper's argument for reserving a priori.
type BaselineComparisonResult struct {
	Kind   Kind
	Rounds int

	// BCP world: one backup at mux=3 per connection.
	BCPAdmitted int
	BCPLoad     float64
	BCPSpare    float64
	BCPOneLink  float64
	BCPOneNode  float64

	// Reestablishment world: no backups, no spare.
	ReAdmitted int
	ReLoad     float64
	ReOneLink  float64
	ReOneNode  float64
}

// RunBaselineComparison evaluates both worlds under the same offered load.
func RunBaselineComparison(opts Options) BaselineComparisonResult {
	const rounds = 3
	res := BaselineComparisonResult{Kind: Torus8x8, Rounds: rounds}

	// BCP world.
	{
		g := NewGraph(Torus8x8)
		m := core.NewManager(g, opts.config())
		res.BCPAdmitted = establishRounds(m, allPairs(g, 1, 3), rounds)
		res.BCPLoad = m.Network().NetworkLoad()
		res.BCPSpare = m.Network().SpareFraction()
		res.BCPOneLink = Sweep(m, AllSingleLinkFailures(g), opts).RFast
		res.BCPOneNode = Sweep(m, AllSingleNodeFailures(g), opts).RFast
	}
	// Re-establishment world.
	{
		g := NewGraph(Torus8x8)
		m := core.NewManager(g, opts.config())
		res.ReAdmitted = establishRounds(m, workload.AllPairs(g, rtchan.DefaultSpec(), nil), rounds)
		res.ReLoad = m.Network().NetworkLoad()
		re := baseline.NewReestablish(m)
		var link, node metrics.Ratio
		for _, f := range AllSingleLinkFailures(g) {
			st := re.Trial(f)
			link.Add(float64(st.FastRecovered), float64(st.FailedPrimaries))
		}
		for _, f := range AllSingleNodeFailures(g) {
			st := re.Trial(f)
			node.Add(float64(st.FastRecovered), float64(st.FailedPrimaries))
		}
		res.ReOneLink = link.Value()
		res.ReOneNode = node.Value()
	}
	return res
}

// establishRounds offers a workload `rounds` times, returning the number of
// connections admitted.
func establishRounds(m *core.Manager, reqs []workload.Request, rounds int) int {
	admitted := 0
	for round := 0; round < rounds; round++ {
		est, _ := workload.Establish(m, reqs)
		admitted += est
	}
	return admitted
}

// Render prints the §8 comparison.
func (r BaselineComparisonResult) Render() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("BCP vs recover-by-reestablishment ([BAN93], §8) — %s, %d all-pairs rounds offered",
			r.Kind, r.Rounds),
		Columns: []string{"Metric", "BCP (1 backup, mux=3)", "Re-establishment"},
	}
	t.AddRow("Connections admitted", fmt.Sprintf("%d", r.BCPAdmitted), fmt.Sprintf("%d", r.ReAdmitted))
	t.AddRow("Network load", metrics.FormatPercent(r.BCPLoad), metrics.FormatPercent(r.ReLoad))
	t.AddRow("Spare reservation", metrics.FormatPercent(r.BCPSpare), "0.00%")
	t.AddRow("Recovery, 1 link failure", metrics.FormatPercent(r.BCPOneLink), metrics.FormatPercent(r.ReOneLink))
	t.AddRow("Recovery, 1 node failure", metrics.FormatPercent(r.BCPOneNode), metrics.FormatPercent(r.ReOneNode))
	t.AddRow("Recovery latency", "bounded (ms; §5.3)", "unbounded (signaling + retries)")
	t.AddRow("Single-failure guarantee", "all links at mux<=3", "none")
	return t.String()
}
