package experiment

import (
	"fmt"
	"math"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/reliability"
	"github.com/rtcl/bcp/internal/workload"
)

// Figure9Result reproduces one panel of Figure 9: average spare-bandwidth
// reservation (fraction of total capacity) as a function of network load,
// one series per multiplexing degree.
type Figure9Result struct {
	Kind    Kind
	Backups int
	Series  []metrics.Series
}

// RunFigure9 establishes the all-pairs workload incrementally for each
// degree in alphas, sampling (network load, spare fraction) every
// sampleEvery connections. alpha = 0 is the "multiplexing disabled" curve.
// The per-degree runs are independent (each has its own network), so they
// share forEach's pool of opts.Workers; series stay in alphas order.
func RunFigure9(kind Kind, backups int, alphas []int, sampleEvery int, opts Options) Figure9Result {
	if sampleEvery <= 0 {
		sampleEvery = 100
	}
	res := Figure9Result{Kind: kind, Backups: backups, Series: make([]metrics.Series, len(alphas))}
	forEach(len(alphas), opts.workerCount(), func(_, i int) {
		g := NewGraph(kind)
		m := core.NewManager(g, opts.config())
		s := &res.Series[i]
		*s = metrics.Series{Name: fmt.Sprintf("mux=%d", alphas[i]), XLabel: "network-load", YLabel: "spare-bandwidth"}
		// One sample after every full chunk of sampleEvery requests, and one
		// at the end.
		reqs := allPairs(g, backups, alphas[i])
		for len(reqs) >= sampleEvery {
			workload.Establish(m, reqs[:sampleEvery])
			reqs = reqs[sampleEvery:]
			s.Append(m.Network().NetworkLoad(), m.Network().SpareFraction())
		}
		workload.Establish(m, reqs)
		s.Append(m.Network().NetworkLoad(), m.Network().SpareFraction())
	})
	return res
}

// Render prints the figure as aligned data columns.
func (r Figure9Result) Render() string {
	return metrics.RenderSeries(
		fmt.Sprintf("Figure 9: average spare-bandwidth reservation — %d backup(s) in %s", r.Backups, r.Kind),
		r.Series...)
}

// Render prints both reliability curves as aligned columns.
func (r Figure3Result) Render() string {
	return metrics.RenderSeries(
		"Figure 3: D-connection reliability — Markov model vs combinatorial approximation",
		r.Markov, r.Combinatorial)
}

// Figure3Result compares the Markov-model reliability R(t) of §3.1 with the
// combinatorial Pr approximation the paper adopts, across a horizon sweep.
type Figure3Result struct {
	Markov        metrics.Series
	Combinatorial metrics.Series
}

// RunFigure3 evaluates a single-backup D-connection with primary/backup
// paths of the given hop counts, per-component failure rate lambda (per time
// unit), and repair rate mu.
func RunFigure3(primaryHops, backupHops int, lambda, mu float64, horizons []float64) Figure3Result {
	cPrim := 2*primaryHops + 1
	cBack := 2*backupHops + 1
	model := reliability.DConnModel{
		Lambda1: float64(cPrim) * lambda,
		Lambda2: float64(cBack) * lambda,
		Lambda3: 0,
		Mu:      mu,
	}
	res := Figure3Result{
		Markov:        metrics.Series{Name: "markov-R(t)", XLabel: "t", YLabel: "reliability"},
		Combinatorial: metrics.Series{Name: "combinatorial", XLabel: "t", YLabel: "reliability"},
	}
	prUnit := reliability.PrSingleBackup(lambda, cPrim, cBack, 0)
	for _, t := range horizons {
		res.Markov.Append(t, model.Reliability(t))
		// The combinatorial model resets each time unit: survival over t
		// units is Pr^t.
		res.Combinatorial.Append(t, math.Pow(prUnit, t))
	}
	return res
}
