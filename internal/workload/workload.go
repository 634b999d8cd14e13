// Package workload is the one place the evaluation's connection requests
// are written: the paper's homogeneous all-pairs load, Table 2's mixed
// degrees and the hot-spot load with mixed bandwidths (§7.1). Establish is
// the one loop that offers a workload to a manager.
package workload

import (
	"math/rand"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Request is one D-connection request.
type Request struct {
	Src, Dst topology.NodeID
	Spec     rtchan.TrafficSpec
	Degrees  []int
}

// AllPairs reproduces the paper's static workload: one request per ordered
// node pair, in ascending order, identical spec and backup degrees.
func AllPairs(g *topology.Graph, spec rtchan.TrafficSpec, degrees []int) []Request {
	n := g.NumNodes()
	out := make([]Request, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			out = append(out, Request{
				Src: topology.NodeID(s), Dst: topology.NodeID(d),
				Spec: spec, Degrees: degrees,
			})
		}
	}
	return out
}

// Mixed is AllPairs with Table 2's mixed degrees: request i gets backups
// backups, all at degree alphas[i % len(alphas)], so each class holds an
// equal share of the connections. One alpha is the uniform workload of
// Tables 1 and 3.
func Mixed(g *topology.Graph, spec rtchan.TrafficSpec, backups int, alphas []int) []Request {
	classes := make([][]int, len(alphas))
	for c, alpha := range alphas {
		classes[c] = make([]int, backups)
		for j := range classes[c] {
			classes[c][j] = alpha
		}
	}
	reqs := AllPairs(g, spec, nil)
	for i := range reqs {
		reqs[i].Degrees = classes[i%len(classes)]
	}
	return reqs
}

// HotSpotConfig parameterizes the inhomogeneous workload of §7.1.
type HotSpotConfig struct {
	// Draws is the number of endpoint draws; draws that pick src == dst
	// are dropped, so HotSpot returns at most Draws requests.
	Draws int
	// HotNodes receive the destination of every even-numbered draw.
	HotNodes []topology.NodeID
	// HeavyBandwidth replaces the spec's bandwidth on one request in four
	// (0 keeps the spec's; the draw is made either way).
	HeavyBandwidth float64
	// Spec is the base traffic contract.
	Spec rtchan.TrafficSpec
	// Degrees are the backup degrees of every request.
	Degrees []int
}

// HotSpot generates the inhomogeneous workload: a uniform source, a
// destination drawn from HotNodes on even draws and uniformly on odd ones,
// and a one-in-four chance of HeavyBandwidth. Deterministic per rng seed.
func HotSpot(g *topology.Graph, cfg HotSpotConfig, rng *rand.Rand) []Request {
	if len(cfg.HotNodes) == 0 || cfg.Draws <= 0 {
		return nil
	}
	n := g.NumNodes()
	out := make([]Request, 0, cfg.Draws)
	for i := 0; i < cfg.Draws; i++ {
		src := topology.NodeID(rng.Intn(n))
		var dst topology.NodeID
		if i%2 == 0 {
			dst = cfg.HotNodes[rng.Intn(len(cfg.HotNodes))]
		} else {
			dst = topology.NodeID(rng.Intn(n))
		}
		if src == dst {
			continue
		}
		spec := cfg.Spec
		if rng.Intn(4) == 0 && cfg.HeavyBandwidth > 0 {
			spec.Bandwidth = cfg.HeavyBandwidth
		}
		out = append(out, Request{Src: src, Dst: dst, Spec: spec, Degrees: cfg.Degrees})
	}
	return out
}

// Establish applies a workload to a manager, returning established
// and rejected counts.
func Establish(m *core.Manager, reqs []Request) (established, rejected int) {
	for _, r := range reqs {
		if _, err := m.Establish(r.Src, r.Dst, r.Spec, r.Degrees); err != nil {
			rejected++
		} else {
			established++
		}
	}
	return established, rejected
}
