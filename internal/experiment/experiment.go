// Package experiment reproduces the paper's evaluation (§7): every table and
// figure has a driver here that builds the network, establishes the paper's
// workload, runs the failure sweeps, and returns the same rows/series the
// paper reports. See DESIGN.md §4 for the experiment index.
package experiment

import (
	"fmt"
	"math/rand"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/workload"
)

// Kind names an evaluation network.
type Kind string

// The paper's two evaluation networks. Link capacities are chosen so both
// networks have similar total capacity (paper §7).
const (
	Torus8x8 Kind = "torus-8x8" // 200 Mbps links
	Mesh8x8  Kind = "mesh-8x8"  // 300 Mbps links
)

// torusCapacityMbps is the torus's link capacity, which the harnesses on it
// hand to bcpd.Config.Conformance.
const torusCapacityMbps = 200

// NewGraph builds the evaluation network.
func NewGraph(kind Kind) *topology.Graph {
	switch kind {
	case Torus8x8:
		return topology.NewTorus(8, 8, torusCapacityMbps)
	case Mesh8x8:
		return topology.NewMesh(8, 8, 300)
	default:
		panic(fmt.Sprintf("experiment: unknown network kind %q", kind))
	}
}

// Options controls an experiment run.
type Options struct {
	// Lambda is the component failure probability per time unit.
	Lambda float64
	// Order is the activation contention order (default OrderByConn).
	Order core.ActivationOrder
	// Seed drives randomized activation ordering (OrderRandom). Each trial
	// derives its own rng from (Seed, trial index) — see trialRNG — so the
	// shuffle a trial sees does not depend on which trials ran before it or
	// on which worker executes it.
	Seed int64
	// DoubleNodeSample limits the double-node sweep to this many sampled
	// pairs (0 = exhaustive: all N·(N-1)/2 pairs).
	DoubleNodeSample int
	// Workers sets the worker-pool size for failure sweeps: the pool shares
	// one established NetworkPlan, each worker trialing through its own
	// per-goroutine core.TrialView, so adding workers adds no establishment
	// or memory cost. 0 or 1 runs serially; negative uses GOMAXPROCS.
	// Results are identical to a serial run for every activation order,
	// including OrderRandom (per-trial rng derivation).
	Workers int
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{Lambda: 1e-4}
}

func (o Options) config() core.Config {
	cfg := core.DefaultConfig()
	if o.Lambda > 0 {
		cfg.Lambda = o.Lambda
	}
	return cfg
}

// Renderable is an experiment result with its paper-style presentation.
type Renderable interface{ Render() string }

// IDs names every experiment Run knows, in the order `bcpsim -exp all` runs
// them.
var IDs = []string{"table1a", "table1b", "table1c", "table2a", "table2b", "table2c",
	"table3a", "table3b", "fig9a", "fig9b", "fig9c", "fig3", "sec5", "schemes",
	"hotspot", "severity", "scalability", "baselines"}

// Run runs the experiment named id with the paper's parameters.
func Run(id string, opts Options) (Renderable, error) {
	alphas := []int{1, 3, 5, 6}
	fig9 := []int{0, 1, 3, 5, 6}
	switch id {
	case "table1a":
		return RunTable1(Torus8x8, 1, alphas, opts), nil
	case "table1b":
		return RunTable1(Torus8x8, 2, alphas, opts), nil
	case "table1c":
		return RunTable1(Mesh8x8, 1, alphas, opts), nil
	case "table2a":
		return RunTable2(Torus8x8, 1, alphas, opts), nil
	case "table2b":
		return RunTable2(Torus8x8, 2, alphas, opts), nil
	case "table2c":
		return RunTable2(Mesh8x8, 1, alphas, opts), nil
	case "table3a":
		return table3{RunTable3(Torus8x8, alphas, opts)}, nil
	case "table3b":
		return table3{RunTable3(Mesh8x8, alphas, opts)}, nil
	case "fig9a":
		return RunFigure9(Torus8x8, 1, fig9, 256, opts), nil
	case "fig9b":
		return RunFigure9(Torus8x8, 2, fig9, 256, opts), nil
	case "fig9c":
		return RunFigure9(Mesh8x8, 1, fig9, 256, opts), nil
	case "fig3":
		return RunFigure3(4, 6, 1e-5, 100, []float64{1, 10, 100, 1000, 10000, 100000}), nil
	case "sec5":
		return RunSection5(opts), nil
	case "schemes":
		return RunSchemeComparison(opts), nil
	case "hotspot":
		return RunHotspot(opts), nil
	case "severity":
		return RunSeverity(5, 200, opts), nil
	case "scalability":
		return RunScalability(3, opts), nil
	case "baselines":
		return RunBaselineComparison(opts), nil
	}
	return nil, fmt.Errorf("unknown experiment %q", id)
}

// allPairs is the paper's workload on g (PAPER.md): one 1 Mbps request per
// ordered node pair (64·63 = 4032 on the evaluation networks), each with
// `backups` backups at degree alphas[i % len(alphas)] — one alpha for
// Tables 1 and 3, Table 2's mix for several.
func allPairs(g *topology.Graph, backups int, alphas ...int) []workload.Request {
	return workload.Mixed(g, rtchan.DefaultSpec(), backups, alphas)
}

// Trialer runs one failure trial; implemented by *core.Manager and the
// brute-force baseline.
type Trialer interface {
	Trial(f core.Failure, order core.ActivationOrder, rng *rand.Rand) core.RecoveryStats
}

// SweepResult aggregates R_fast over a set of failure trials.
type SweepResult struct {
	Trials               int
	RFast                float64
	ByDegree             map[int]float64
	MeanFailedPrimaries  float64
	MeanFailedBackups    float64
	MeanMuxFailed        float64
	MeanBackupDead       float64
	TotalFailedPrimaries int
}

// Sweep evaluates a trialer over every failure in the list on
// opts.Workers pool workers (see sweepMany), aggregating R_fast as
// total-fast / total-failed across trials (the paper's ratio of fast
// recoveries to failed primary channels). The result is the same for every
// worker count.
func Sweep(t Trialer, failures []core.Failure, opts Options) SweepResult {
	return sweepMany(t, [][]core.Failure{failures}, opts)[0]
}

// trialRNG returns the activation-shuffle rng for the trial-th failure of a
// sweep, or nil for deterministic orders. The seed is derived from
// (Options.Seed, trial) so every trial owns an independent stream: a worker
// pool can run trials in any order, on any worker, and still shuffle each
// trial exactly as a serial sweep would.
func (o Options) trialRNG(trial int) *rand.Rand {
	if o.Order != core.OrderRandom {
		return nil
	}
	return rand.New(rand.NewSource(trialSeed(o.Seed, trial)))
}

// trialSeed mixes a sweep seed and a trial index into a well-spread 64-bit
// stream seed (splitmix64 finalizer). Sequential trial indices under
// rand.NewSource would otherwise yield correlated low bits.
func trialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(trial+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// foldStats aggregates per-trial stats in slice order, so a parallel sweep
// that stores results by trial index folds to exactly the serial result.
func foldStats(stats []core.RecoveryStats) SweepResult {
	var r metrics.Ratio
	byDeg := make(map[int]*metrics.Ratio)
	var failedP, failedB, muxF, dead metrics.Mean
	for _, s := range stats {
		r.Add(float64(s.FastRecovered), float64(s.FailedPrimaries))
		failedP.Add(float64(s.FailedPrimaries))
		failedB.Add(float64(s.FailedBackups))
		muxF.Add(float64(s.MuxFailed))
		dead.Add(float64(s.BackupDead))
		for alpha, d := range s.ByDegree {
			rr := byDeg[alpha]
			if rr == nil {
				rr = &metrics.Ratio{}
				byDeg[alpha] = rr
			}
			rr.Add(float64(d.FastRecovered), float64(d.FailedPrimaries))
		}
	}
	out := SweepResult{
		Trials:               len(stats),
		RFast:                r.Value(),
		ByDegree:             make(map[int]float64, len(byDeg)),
		MeanFailedPrimaries:  failedP.Value(),
		MeanFailedBackups:    failedB.Value(),
		MeanMuxFailed:        muxF.Value(),
		MeanBackupDead:       dead.Value(),
		TotalFailedPrimaries: int(r.Den),
	}
	for alpha, rr := range byDeg {
		out.ByDegree[alpha] = rr.Value()
	}
	return out
}

// AllSingleLinkFailures enumerates the paper's single-link failure model:
// one trial per simplex link.
func AllSingleLinkFailures(g *topology.Graph) []core.Failure {
	out := make([]core.Failure, 0, g.NumLinks())
	for _, l := range g.Links() {
		out = append(out, core.SingleLink(l.ID))
	}
	return out
}

// AllSingleNodeFailures enumerates one trial per node.
func AllSingleNodeFailures(g *topology.Graph) []core.Failure {
	out := make([]core.Failure, 0, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		out = append(out, core.SingleNode(topology.NodeID(n)))
	}
	return out
}

// AllDoubleNodeFailures enumerates every unordered node pair, or a uniform
// sample of them when sample > 0.
func AllDoubleNodeFailures(g *topology.Graph, sample int, seed int64) []core.Failure {
	n := g.NumNodes()
	var out []core.Failure
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, core.DoubleNode(topology.NodeID(a), topology.NodeID(b)))
		}
	}
	if sample > 0 && sample < len(out) {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		out = out[:sample]
	}
	return out
}
