package experiment

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/wire"
)

// TestCountedBoundIsFlatWhere52Holds holds the counted Γ bound to §5.3's
// closed form on every Section 5 row where §5.2's provisioning holds, that
// is where no link pair carries more channels than an RCC frame holds
// controls: no hop then waits past its first frame, and the bound column is
// the detection window plus (K−1)·D^RCC_max + 2(b−1)(K−1)·D^RCC_max for
// the recovery's K and b.
func TestCountedBoundIsFlatWhere52Holds(t *testing.T) {
	opts := DefaultOptions()
	cfg := protocolTimingConfig()
	dmax := cfg.HopBound(torusCapacityMbps)
	perFrame := wire.MaxControlsForBudget(cfg.RCC.SMax)
	checked := 0
	for _, row := range RunSection5(opts).Rows {
		// The row's connection, the only one on the torus, as it stood at
		// the crash: K is its longest channel, b its backups.
		run, err := section5Scenario(opts, cfg, row.Backups, row.FailPos, row.BackupHit).Build()
		if err != nil {
			t.Fatal(err)
		}
		chans := append([]*rtchan.Channel{run.Conn.Primary}, run.Conn.Backups...)
		g := run.Conn.Primary.Path.Graph()
		pair := make(map[[2]topology.NodeID]int)
		hops := 0
		for _, ch := range chans {
			hops = max(hops, ch.Path.Hops())
			for _, l := range ch.Path.Links() {
				lk := g.Link(l)
				pair[[2]topology.NodeID{min(lk.From, lk.To), max(lk.From, lk.To)}]++
			}
		}
		worst := 0
		for _, n := range pair {
			worst = max(worst, n)
		}
		if worst > perFrame {
			continue
		}
		k, b := sim.Duration(hops-1), sim.Duration(len(run.Conn.Backups)-1)
		if flat := cfg.DetectionWindow() + k*dmax + 2*b*k*dmax; row.Bound != flat {
			t.Errorf("link %d, %d backup(s): counted bound %v, §5.3's %v (K=%d)",
				row.FailPos, row.Backups, time.Duration(row.Bound), time.Duration(flat), hops)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("§5.2 held on no Section 5 row")
	}
}
