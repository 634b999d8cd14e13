package experiment

import (
	"fmt"
	"math/rand"

	"github.com/rtcl/bcp/internal/baseline"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/workload"
)

// HotspotResult quantifies §7.1/§7.4's inhomogeneity claim: with hot-spot
// traffic (channel end-points concentrated on a few nodes) and mixed
// bandwidths, the proposed per-link spare sizing holds up while the
// brute-force uniform reservation degrades.
type HotspotResult struct {
	Kind            Kind
	Established     int
	Rejected        int
	SpareBW         float64
	ProposedOneLink float64
	ProposedOneNode float64
	BruteOneLink    float64
	BruteOneNode    float64
}

// RunHotspot builds a hot-spot workload on the torus: half of all
// connections terminate at one of four hot nodes, and bandwidths mix 1 and
// 3 Mbps. It compares R_fast of the proposed scheme against brute-force
// multiplexing with the same total spare budget.
func RunHotspot(opts Options) HotspotResult {
	g := NewGraph(Torus8x8)
	m := core.NewManager(g, opts.config())
	reqs := workload.HotSpot(g, workload.HotSpotConfig{
		Draws:          3000,
		HotNodes:       []topology.NodeID{9, 14, 49, 54},
		HeavyBandwidth: 3,
		Spec:           rtchan.DefaultSpec(),
		Degrees:        []int{3},
	}, rand.New(rand.NewSource(opts.Seed)))

	res := HotspotResult{Kind: Torus8x8}
	res.Established, res.Rejected = workload.Establish(m, reqs)
	res.SpareBW = m.Network().SpareFraction()

	brute := baseline.NewBruteForce(m, baseline.UniformSpareFromManager(m), true)
	res.ProposedOneLink = Sweep(m, AllSingleLinkFailures(g), opts).RFast
	res.ProposedOneNode = Sweep(m, AllSingleNodeFailures(g), opts).RFast
	res.BruteOneLink = Sweep(brute, AllSingleLinkFailures(g), opts).RFast
	res.BruteOneNode = Sweep(brute, AllSingleNodeFailures(g), opts).RFast
	return res
}

// Render prints the comparison.
func (r HotspotResult) Render() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Hot-spot workload on %s (%d connections, spare %s): proposed vs brute-force",
			r.Kind, r.Established, metrics.FormatPercent(r.SpareBW)),
		Columns: []string{"Scheme", "1 link failure", "1 node failure"},
	}
	t.AddRow("proposed", metrics.FormatPercent(r.ProposedOneLink), metrics.FormatPercent(r.ProposedOneNode))
	t.AddRow("brute-force", metrics.FormatPercent(r.BruteOneLink), metrics.FormatPercent(r.BruteOneNode))
	return t.String()
}
