// Package workload is the one place the evaluation's connection requests
// are written: the paper's homogeneous all-pairs load, Table 2's mixed
// degrees, the hot-spot load with mixed bandwidths (§7.1), and dynamic
// churn with Poisson arrivals and exponential holding times — the setting
// the paper argues distinguishes BCP from design-time VP-restoration
// schemes (§8). Establish is the one loop that offers a static workload to
// a manager.
package workload

import (
	"math/rand"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
)

// Request is one D-connection request.
type Request struct {
	Src, Dst topology.NodeID
	Spec     rtchan.TrafficSpec
	Degrees  []int

	// Arrival and Holding position the request in time for dynamic
	// workloads; static workloads leave them zero.
	Arrival sim.Duration
	Holding sim.Duration
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

// Establish applies a static workload to a manager, returning established
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

// DynamicConfig parameterizes Poisson churn.
type DynamicConfig struct {
	// ArrivalRate is the request arrival rate (per second).
	ArrivalRate float64
	// MeanHolding is the mean connection lifetime.
	MeanHolding sim.Duration
	// Duration bounds the arrival process.
	Duration sim.Duration
	// Spec and Degrees apply to every request.
	Spec    rtchan.TrafficSpec
	Degrees []int
}

// Dynamic generates a churn trace: exponential interarrivals and holding
// times, endpoints uniform over distinct node pairs.
func Dynamic(g *topology.Graph, cfg DynamicConfig, rng *rand.Rand) []Request {
	if cfg.ArrivalRate <= 0 || cfg.Duration <= 0 {
		return nil
	}
	n := g.NumNodes()
	var out []Request
	at := sim.Duration(0)
	for {
		gap := sim.Duration(rng.ExpFloat64() / cfg.ArrivalRate * float64(time.Second))
		at += gap
		if at > cfg.Duration {
			return out
		}
		src := topology.NodeID(rng.Intn(n))
		dst := topology.NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		hold := sim.Duration(rng.ExpFloat64() * float64(cfg.MeanHolding))
		out = append(out, Request{
			Src: src, Dst: dst, Spec: cfg.Spec, Degrees: cfg.Degrees,
			Arrival: at, Holding: hold,
		})
	}
}

// ChurnStats summarizes a dynamic run.
type ChurnStats struct {
	Established int
	Rejected    int
	Departed    int
	PeakLoad    float64
	PeakSpare   float64
}

// RunChurn schedules a dynamic workload on a simulation engine against a
// manager: each request establishes on arrival (counting rejections) and
// tears down after its holding time. Invariants are the caller's to check
// afterwards; peak load/spare are tracked at every event.
func RunChurn(eng *sim.Engine, m *core.Manager, reqs []Request) *ChurnStats {
	stats := &ChurnStats{}
	sample := func() {
		if l := m.Network().NetworkLoad(); l > stats.PeakLoad {
			stats.PeakLoad = l
		}
		if s := m.Network().SpareFraction(); s > stats.PeakSpare {
			stats.PeakSpare = s
		}
	}
	for _, r := range reqs {
		r := r
		eng.Schedule(r.Arrival, func() {
			conn, err := m.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
			if err != nil {
				stats.Rejected++
				return
			}
			stats.Established++
			sample()
			eng.Schedule(r.Holding, func() {
				if m.Connection(conn.ID) != nil {
					if err := m.Teardown(conn.ID); err == nil {
						stats.Departed++
					}
				}
				sample()
			})
		})
	}
	return stats
}
