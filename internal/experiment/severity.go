package experiment

import (
	"fmt"
	"math/rand"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/workload"
)

// SeverityResult extends the paper's three failure models into a severity
// sweep: R_fast as a function of the number of simultaneously failed
// components (links and nodes mixed), for different backup configurations.
// The paper's per-connection fault-tolerance claim — more backups at
// tighter degrees tolerate "harsher failures" — becomes a measurable curve.
type SeverityResult struct {
	Kind     Kind
	MaxFail  int
	Trials   int
	Configs  []string
	RFast    [][]float64 // [config][k-1]
	BackupOK [][]float64 // fraction of failed primaries with any live backup
}

// RunSeverity sweeps k = 1..maxFail simultaneous random component failures
// (each failed component is a node with probability 1/3, else a simplex
// link) over the given number of trials per k, for three configurations:
// one backup at mux=3, one backup at mux=1, and two backups at mux=3.
func RunSeverity(maxFail, trials int, opts Options) SeverityResult {
	if maxFail <= 0 {
		maxFail = 5
	}
	if trials <= 0 {
		trials = 100
	}
	res := SeverityResult{
		Kind:    Torus8x8,
		MaxFail: maxFail,
		Trials:  trials,
		Configs: []string{"1 backup mux=3", "1 backup mux=1", "2 backups mux=3"},
	}
	configs := []struct {
		backups, alpha int
	}{{1, 3}, {1, 1}, {2, 3}}

	for _, cfg := range configs {
		g := NewGraph(Torus8x8)
		m := core.NewManager(g, opts.config())
		workload.Establish(m, allPairs(g, cfg.backups, cfg.alpha))
		rFast := make([]float64, maxFail)
		bOK := make([]float64, maxFail)
		for k := 1; k <= maxFail; k++ {
			rng := rand.New(rand.NewSource(opts.Seed + int64(k)))
			var r, alive metrics.Ratio
			for trial := 0; trial < trials; trial++ {
				f := randomFailure(g, k, rng)
				stats := m.Trial(f, core.OrderByConn, nil)
				r.Add(float64(stats.FastRecovered), float64(stats.FailedPrimaries))
				alive.Add(float64(stats.FailedPrimaries-stats.BackupDead), float64(stats.FailedPrimaries))
			}
			rFast[k-1] = r.Value()
			bOK[k-1] = alive.Value()
		}
		res.RFast = append(res.RFast, rFast)
		res.BackupOK = append(res.BackupOK, bOK)
	}
	return res
}

// randomFailure draws k distinct components: nodes with probability 1/3,
// simplex links otherwise.
func randomFailure(g *topology.Graph, k int, rng *rand.Rand) core.Failure {
	links := map[topology.LinkID]struct{}{}
	nodes := map[topology.NodeID]struct{}{}
	for len(links)+len(nodes) < k {
		if rng.Intn(3) == 0 {
			nodes[topology.NodeID(rng.Intn(g.NumNodes()))] = struct{}{}
		} else {
			links[topology.LinkID(rng.Intn(g.NumLinks()))] = struct{}{}
		}
	}
	ls := make([]topology.LinkID, 0, len(links))
	for l := range links {
		ls = append(ls, l)
	}
	ns := make([]topology.NodeID, 0, len(nodes))
	for n := range nodes {
		ns = append(ns, n)
	}
	return core.NewFailure(ls, ns)
}

// Render prints the severity sweep.
func (r SeverityResult) Render() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Failure severity sweep — %s, %d trials per point (R_fast / backup-survival)",
			r.Kind, r.Trials),
		Columns: append([]string{"Configuration"}, severityHeaders(r.MaxFail)...),
	}
	for i, name := range r.Configs {
		cells := make([]string, r.MaxFail)
		for k := 0; k < r.MaxFail; k++ {
			cells[k] = fmt.Sprintf("%.1f%%/%.1f%%", r.RFast[i][k]*100, r.BackupOK[i][k]*100)
		}
		t.AddRow(name, cells...)
	}
	return t.String()
}

func severityHeaders(maxFail int) []string {
	out := make([]string, maxFail)
	for k := 1; k <= maxFail; k++ {
		out[k-1] = fmt.Sprintf("k=%d", k)
	}
	return out
}
