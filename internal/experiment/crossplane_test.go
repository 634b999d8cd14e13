package experiment

// Cross-plane validation: the transactional failure trials the paper's
// tables are computed from (core.Manager.Trial) and the message-level
// protocol engine (internal/bcpd) are two implementations of the same
// recovery semantics. On the full paper workload they must agree on which
// connections recover from a given failure. Connection ids are assigned in
// establishment order, so identical workloads give identical ids in both
// worlds.

import (
	"fmt"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/workload"
)

func TestProtocolMatchesTransactionalTrial(t *testing.T) {
	opts := DefaultOptions()
	for _, tc := range []struct {
		failLink    topology.LinkID
		provisioned bool // RCC.SMax meets §5.2 for the loaded network
	}{
		{0, true}, {37, true}, {101, true}, {200, true},
		// §5.2 is necessary, not decoration: with the default 256 B frame
		// the reports of link 0's 178 disrupted primaries queue behind each
		// other and some recoveries overrun Γ. The rule must fire.
		{0, false},
	} {
		failLink := tc.failLink
		// Transactional world: establish and predict.
		gT := NewGraph(Torus8x8)
		mT := core.NewManager(gT, opts.config())
		workload.Establish(mT, allPairs(gT, 1, 3))
		trial := mT.Trial(core.SingleLink(failLink), core.OrderByConn, nil)
		var failedIDs []rtchan.ConnID
		for _, conn := range mT.Connections() {
			if conn.Primary != nil && conn.Primary.Path.ContainsLink(failLink) {
				failedIDs = append(failedIDs, conn.ID)
			}
		}
		if len(failedIDs) != trial.FailedPrimaries {
			t.Fatalf("link %d: inconsistent trial accounting", failLink)
		}

		// Protocol world: identical establishment, failure by messages.
		gP := NewGraph(Torus8x8)
		mP := core.NewManager(gP, opts.config())
		workload.Establish(mP, allPairs(gP, 1, 3))
		eng := sim.New(1)
		cfg := bcpd.DefaultConfig()
		cfg.DetectionLatency = 0
		cfg.RejoinTimeout = sim.Duration(time.Hour) // no teardown during the check
		maxChans, need := bcpd.RCCProvisioning(mP)
		if tc.provisioned {
			cfg.RCC.SMax = need
		}
		// Conformance-check the full-workload run, Γ included: every
		// disrupted source carries traffic, so every fast recovery is a
		// source switch the checker compares against the bound of this
		// configuration.
		p := cfg.Conformance(torusCapacityMbps)
		chk := conformance.New(p)
		cfg.Sink = chk
		net := bcpd.New(eng, mP, cfg)
		for _, id := range failedIDs {
			if err := net.StartTraffic(id, 100); err != nil {
				t.Fatal(err)
			}
		}
		eng.At(sim.Time(10*time.Millisecond), func() { net.FailLink(failLink) })
		eng.RunFor(2 * time.Second)
		viols := chk.Finish()
		t.Logf("link %d, S_max %d B (§5.2: %d channels on the worst pair -> %d B): %d recoveries checked, %d over the bound, worst %v",
			failLink, cfg.RCC.SMax, maxChans, need, chk.GammaChecked(), len(viols), gammaWorst(p, chk.Recoveries()))
		if tc.provisioned {
			for _, v := range viols {
				t.Errorf("link %d: conformance: %v", failLink, v)
			}
		} else {
			if len(viols) == 0 {
				t.Errorf("link %d: S_max %d B is below §5.2's %d B yet no recovery broke the Γ bound", failLink, cfg.RCC.SMax, need)
			}
			for _, v := range viols {
				if v.Rule != "gamma" {
					t.Errorf("link %d: conformance: %v", failLink, v)
				}
			}
		}
		if got := chk.GammaChecked(); got != trial.FastRecovered {
			t.Errorf("link %d: Γ checked on %d recoveries, trial fast-recovers %d", failLink, got, trial.FastRecovered)
		}

		recovered := 0
		for _, id := range failedIDs {
			conn := mP.Connection(id)
			if conn != nil && conn.Primary != nil && !conn.Primary.Path.ContainsLink(failLink) {
				recovered++
			}
		}
		if recovered != trial.FastRecovered {
			t.Fatalf("link %d: recovered %d (protocol) vs %d (trial), %d failed primaries",
				failLink, recovered, trial.FastRecovered, trial.FailedPrimaries)
		}
		if err := mP.CheckMuxInvariants(); err != nil {
			t.Fatalf("link %d: %v", failLink, err)
		}
	}
}

// gammaWorst renders the recovery closest to (or furthest past) its Γ bound,
// for the ratios EXPERIMENTS.md quotes; the verdict is the checker's.
func gammaWorst(p conformance.Params, rs []trace.Recovery) string {
	worst, bound, ratio := sim.Duration(0), sim.Duration(0), -1.0
	for _, r := range rs {
		b := p.DetectionSlack + conformance.GammaBound(p.DMax, r.Hops, r.Backups)
		if q := float64(r.Gamma()) / float64(b); q > ratio {
			worst, bound, ratio = r.Gamma(), b, q
		}
	}
	if ratio < 0 {
		return "none"
	}
	return fmt.Sprintf("%v vs %v (%.2f)", time.Duration(worst), time.Duration(bound), ratio)
}
