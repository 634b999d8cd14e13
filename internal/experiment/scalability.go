package experiment

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/workload"
)

// ScalabilityRow measures one network size.
type ScalabilityRow struct {
	Nodes            int
	Links            int
	Connections      int
	EstablishTime    time.Duration // wall time for the full all-pairs workload
	PerConnection    time.Duration
	MeanBackupsLink  float64 // mean backup channels per link (the n of §6's O(n))
	MaxBackupsLink   int
	SpareBW          float64
	MaxControlsPair  int // worst-case control messages on a link pair (§5.2)
	RequiredRCCBytes int // S^RCC_max needed for the timely-delivery condition
}

// ScalabilityResult reproduces §6's scalability argument empirically:
// establishment cost per connection stays flat as the network scales
// (backup multiplexing is O(backups-per-link) incremental work, with no
// global knowledge), and §5.2's RCC provisioning bound is computed from the
// established channel population.
type ScalabilityResult struct {
	Alpha int
	Rows  []ScalabilityRow
}

// RunScalability sweeps square tori from 4x4 to 12x12 with the paper's
// per-pair workload at the given multiplexing degree.
func RunScalability(alpha int, opts Options) ScalabilityResult {
	res := ScalabilityResult{Alpha: alpha}
	for _, side := range []int{4, 6, 8, 10, 12} {
		g := topology.NewTorus(side, side, 200*float64(side*side)/64)
		m := core.NewManager(g, opts.config())
		reqs := allPairs(g, 1, alpha)
		start := time.Now()
		est, _ := workload.Establish(m, reqs)
		elapsed := time.Since(start)

		row := ScalabilityRow{
			Nodes:         g.NumNodes(),
			Links:         g.NumLinks(),
			Connections:   est,
			EstablishTime: elapsed,
			SpareBW:       m.Network().SpareFraction(),
		}
		if est > 0 {
			row.PerConnection = elapsed / time.Duration(est)
		}
		var totalBackups int
		for _, l := range g.Links() {
			nb := m.BackupsOnLink(l.ID)
			totalBackups += nb
			if nb > row.MaxBackupsLink {
				row.MaxBackupsLink = nb
			}
		}
		row.MeanBackupsLink = float64(totalBackups) / float64(g.NumLinks())
		row.MaxControlsPair, row.RequiredRCCBytes = bcpd.RCCProvisioning(m)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render prints the scalability table.
func (r ScalabilityResult) Render() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Scalability (§6): all-pairs workload at mux=%d, link capacity scaled with size", r.Alpha),
		Columns: []string{"Torus", "Conns", "Establish", "Per-conn", "Backups/link (mean/max)",
			"Spare", "Max chans/pair", "S_RCC needed"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d nodes", row.Nodes),
			fmt.Sprintf("%d", row.Connections),
			row.EstablishTime.Round(time.Millisecond).String(),
			row.PerConnection.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f/%d", row.MeanBackupsLink, row.MaxBackupsLink),
			metrics.FormatPercent(row.SpareBW),
			fmt.Sprintf("%d", row.MaxControlsPair),
			fmt.Sprintf("%d B", row.RequiredRCCBytes),
		)
	}
	return t.String()
}
