package experiment

import (
	"fmt"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/workload"
)

// AblationRow is one design-choice variant evaluated on the standard
// workload.
type AblationRow struct {
	Name        string
	Established int
	Rejected    int
	SpareBW     float64
	OneLink     float64 // R_fast under single-link failures
	OneNode     float64
}

// AblationResult collects the design ablations DESIGN.md calls out:
//
//   - backup routing: the paper's sequential shortest-path vs max-flow
//     disjoint routing vs the [HAN97b]-style load-aware routing
//   - the §3.2 Π degree restriction on vs off (mixed-degree workload)
type AblationResult struct {
	Kind    Kind
	Routing []AblationRow // uniform mux=3, single backup
	PiRule  []AblationRow // mixed degrees {1,3,5,6}
}

// RunAblation evaluates the variants on the torus workload.
func RunAblation(opts Options) AblationResult {
	res := AblationResult{Kind: Torus8x8}

	routingVariants := []struct {
		name string
		mode core.BackupRouting
	}{
		{"sequential shortest-path (paper)", core.RouteSequential},
		{"max-flow disjoint", core.RouteMaxFlow},
		{"load-aware [HAN97b]", core.RouteLoadAware},
	}
	for _, v := range routingVariants {
		cfg := opts.config()
		cfg.BackupRouting = v.mode
		res.Routing = append(res.Routing, runAblationRow(v.name, cfg, []int{3}, opts))
	}

	for _, restricted := range []bool{true, false} {
		name := "Π degree restriction on (paper)"
		if !restricted {
			name = "Π degree restriction off"
		}
		cfg := opts.config()
		cfg.DisablePiDegreeRestriction = !restricted
		res.PiRule = append(res.PiRule, runAblationRow(name, cfg, []int{1, 3, 5, 6}, opts))
	}
	return res
}

// runAblationRow establishes the all-pairs workload with one backup at
// degrees alphas (mixed as in Table 2 when there are several).
func runAblationRow(name string, cfg core.Config, alphas []int, opts Options) AblationRow {
	g := NewGraph(Torus8x8)
	m := core.NewManager(g, cfg)
	est, rej := workload.Establish(m, allPairs(g, 1, alphas...))
	row := AblationRow{
		Name:        name,
		Established: est,
		Rejected:    rej,
		SpareBW:     m.Network().SpareFraction(),
	}
	sweepOpts := opts
	sweepOpts.Order = core.OrderByPriority
	row.OneLink = Sweep(m, AllSingleLinkFailures(g), sweepOpts).RFast
	row.OneNode = Sweep(m, AllSingleNodeFailures(g), sweepOpts).RFast
	return row
}

// Render prints both ablation tables.
func (r AblationResult) Render() string {
	out := ""
	t1 := &metrics.Table{
		Title:   fmt.Sprintf("Ablation: backup routing algorithm — %s, single backup, mux=3", r.Kind),
		Columns: []string{"Variant", "Spare bw", "1 link", "1 node", "Rejected"},
	}
	for _, row := range r.Routing {
		t1.AddRow(row.Name,
			metrics.FormatPercent(row.SpareBW),
			metrics.FormatPercent(row.OneLink),
			metrics.FormatPercent(row.OneNode),
			fmt.Sprintf("%d", row.Rejected))
	}
	out += t1.String() + "\n"
	t2 := &metrics.Table{
		Title:   fmt.Sprintf("Ablation: §3.2 Π degree restriction — %s, mixed degrees {1,3,5,6}", r.Kind),
		Columns: []string{"Variant", "Spare bw", "1 link", "1 node", "Rejected"},
	}
	for _, row := range r.PiRule {
		t2.AddRow(row.Name,
			metrics.FormatPercent(row.SpareBW),
			metrics.FormatPercent(row.OneLink),
			metrics.FormatPercent(row.OneNode),
			fmt.Sprintf("%d", row.Rejected))
	}
	return out + t2.String()
}
