package experiment

import (
	"fmt"

	"github.com/rtcl/bcp/internal/baseline"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/workload"
)

// AlphaColumn is one column of Tables 1 and 3: the outcome of a whole
// establishment + failure-sweep run at a fixed multiplexing degree.
type AlphaColumn struct {
	Alpha       int
	Established int
	Rejected    int
	NetworkLoad float64
	SpareBW     float64 // fraction of total capacity (NaN when infeasible)
	OneLink     float64 // R_fast under single link failures
	OneNode     float64 // R_fast under single node failures
	TwoNodes    float64 // R_fast under double node failures
}

// Table1Result reproduces one sub-table of Table 1 ("R_fast with same
// multiplexing degrees").
type Table1Result struct {
	Kind    Kind
	Backups int
	Columns []AlphaColumn
}

// RunTable1 reproduces Table 1: establish the all-pairs workload with the
// given number of backups per connection at each multiplexing degree, then
// sweep the three failure models. A configuration whose establishment
// rejects more than 5% of connections is reported as infeasible (the
// paper's "N/A": total bandwidth requirement exceeded network capacity),
// with NaN metrics.
func RunTable1(kind Kind, backups int, alphas []int, opts Options) Table1Result {
	res := Table1Result{Kind: kind, Backups: backups}
	for _, alpha := range alphas {
		res.Columns = append(res.Columns, runAlphaColumn(kind, backups, alpha, opts, false))
	}
	return res
}

func runAlphaColumn(kind Kind, backups, alpha int, opts Options, brute bool) AlphaColumn {
	g := NewGraph(kind)
	m := core.NewManager(g, opts.config())
	est, rej := workload.Establish(m, allPairs(g, backups, alpha))
	col := AlphaColumn{Alpha: alpha, Established: est, Rejected: rej}
	nan := func() float64 { var z float64; return 0 / z }
	if rej*20 > est+rej {
		col.SpareBW, col.OneLink, col.OneNode, col.TwoNodes = nan(), nan(), nan(), nan()
		col.NetworkLoad = m.Network().NetworkLoad()
		return col
	}
	col.NetworkLoad = m.Network().NetworkLoad()
	col.SpareBW = m.Network().SpareFraction()

	var trialer Trialer = m
	if brute {
		trialer = baseline.NewBruteForce(m, baseline.UniformSpareFromManager(m), true)
	}
	res := sweepMany(trialer, [][]core.Failure{
		AllSingleLinkFailures(g),
		AllSingleNodeFailures(g),
		AllDoubleNodeFailures(g, opts.DoubleNodeSample, opts.Seed),
	}, opts)
	col.OneLink = res[0].RFast
	col.OneNode = res[1].RFast
	col.TwoNodes = res[2].RFast
	return col
}

// Render prints the result in the paper's Table 1 layout.
func (r Table1Result) Render() string {
	return r.render(fmt.Sprintf("Table 1: R_fast with same multiplexing degrees — %d backup(s) in %s", r.Backups, r.Kind),
		"Muxing degree")
}

// render lays out Tables 1 and 3: one column per degree, one row per
// metric, under the given title and corner label.
func (r Table1Result) render(title, corner string) string {
	cols := r.Columns
	alphas := make([]int, len(cols))
	for i, c := range cols {
		alphas[i] = c.Alpha
	}
	t := &metrics.Table{Title: title, Columns: muxHeaders(corner, alphas)}
	row := func(label string, get func(AlphaColumn) float64) {
		vals := make([]float64, len(cols))
		for i, c := range cols {
			vals[i] = get(c)
		}
		t.AddPercentRow(label, vals...)
	}
	row("Spare bandwidth", func(c AlphaColumn) float64 { return c.SpareBW })
	row("1 link failure", func(c AlphaColumn) float64 { return c.OneLink })
	row("1 node failure", func(c AlphaColumn) float64 { return c.OneNode })
	row("2 node failures", func(c AlphaColumn) float64 { return c.TwoNodes })
	return t.String()
}

// muxHeaders is a table's header row: the corner label, then "mux=α" per
// degree.
func muxHeaders(corner string, alphas []int) []string {
	out := []string{corner}
	for _, a := range alphas {
		out = append(out, fmt.Sprintf("mux=%d", a))
	}
	return out
}

// Table2Result reproduces one sub-table of Table 2 ("R_fast with mixed
// multiplexing degrees"): a single workload mixing the four degree classes
// equally, with per-class fast-recovery ratios.
type Table2Result struct {
	Kind        Kind
	Backups     int
	Alphas      []int
	Established int
	Rejected    int
	SpareBW     float64
	OneLink     map[int]float64
	OneNode     map[int]float64
	TwoNodes    map[int]float64
}

// RunTable2 reproduces Table 2: 1/4 of connections at each degree in alphas.
//
// Activation uses the paper's priority-based order (§4.3): spare pools sized
// under the "no greater multiplexing degree" refinement of §3.2 only cover a
// backup against peers of its own or smaller degree, so the per-class
// guarantees hold exactly when smaller-ν backups claim spare bandwidth
// first. (Without priority activation the mux=1 class would lose its 100%
// single-failure coverage to claims from cheaper classes.)
func RunTable2(kind Kind, backups int, alphas []int, opts Options) Table2Result {
	opts.Order = core.OrderByPriority
	g := NewGraph(kind)
	m := core.NewManager(g, opts.config())
	est, rej := workload.Establish(m, allPairs(g, backups, alphas...))
	res := Table2Result{
		Kind: kind, Backups: backups, Alphas: alphas,
		Established: est, Rejected: rej,
		SpareBW: m.Network().SpareFraction(),
	}
	sw := sweepMany(m, [][]core.Failure{
		AllSingleLinkFailures(g),
		AllSingleNodeFailures(g),
		AllDoubleNodeFailures(g, opts.DoubleNodeSample, opts.Seed),
	}, opts)
	res.OneLink = sw[0].ByDegree
	res.OneNode = sw[1].ByDegree
	res.TwoNodes = sw[2].ByDegree
	return res
}

// Render prints the result in the paper's Table 2 layout.
func (r Table2Result) Render() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Table 2: R_fast with mixed multiplexing degrees — %d backup(s) in %s (spare bandwidth %s)",
			r.Backups, r.Kind, metrics.FormatPercent(r.SpareBW)),
		Columns: muxHeaders("Muxing degree", r.Alphas),
	}
	row := func(label string, m map[int]float64) {
		vals := make([]float64, len(r.Alphas))
		for i, a := range r.Alphas {
			if v, ok := m[a]; ok {
				vals[i] = v
			} else {
				var z float64
				vals[i] = 0 / z
			}
		}
		t.AddPercentRow(label, vals...)
	}
	row("1 link failure", r.OneLink)
	row("1 node failure", r.OneNode)
	row("2 node failures", r.TwoNodes)
	return t.String()
}

// RunTable3 reproduces Table 3: brute-force multiplexing with the uniform
// per-link spare sized to the proposed scheme's average at each degree.
func RunTable3(kind Kind, alphas []int, opts Options) Table1Result {
	res := Table1Result{Kind: kind, Backups: 1}
	for _, alpha := range alphas {
		res.Columns = append(res.Columns, runAlphaColumn(kind, 1, alpha, opts, true))
	}
	return res
}

// table3 gives a Table 3 run its brute-force presentation: Table 1's rows
// under a Table 3 title.
type table3 struct{ Table1Result }

func (r table3) Render() string {
	return r.render(fmt.Sprintf("Table 3: R_fast with brute-force multiplexing — %s", r.Kind), "Spare bandwidth")
}
