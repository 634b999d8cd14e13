package experiment

// Cross-plane validation: the transactional failure trials the paper's
// tables are computed from (core.TrialView.Trial) and the message-level
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
	"github.com/rtcl/bcp/internal/workload"
)

func TestProtocolMatchesTransactionalTrial(t *testing.T) {
	opts := DefaultOptions()
	// The default 256 B frame is far below §5.2's provisioning for this
	// network: link 0's 178 disrupted primaries queue their reports behind
	// each other. The counted bound charges each hop the frames its
	// controls wait for, so the rule holds at any S^RCC_max.
	for _, failLink := range []topology.LinkID{0, 37, 101, 200} {
		// Transactional world: establish and predict.
		gT := NewGraph(Torus8x8)
		mT := core.NewManager(gT, opts.config())
		workload.Establish(mT, allPairs(gT, 1, 3))
		trial := mT.NewTrialView().Trial(core.SingleLink(failLink), core.OrderByConn, nil)
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
		cfg := bcpd.DefaultConfig()
		cfg.DetectionLatency = 0
		cfg.RejoinTimeout = sim.Duration(time.Hour) // no teardown during the check
		// Conformance-check the full-workload run, Γ included: every
		// disrupted source carries traffic, so every fast recovery is a
		// source switch the checker compares against the bound counted at
		// the crash.
		eng := sim.New(1)
		net := bcpd.NewChecked(eng, bcpd.NewSimTransport(), mP, cfg, nil)
		chk := net.Checker
		for _, id := range failedIDs {
			if err := net.StartTraffic(id, 100); err != nil {
				t.Fatal(err)
			}
		}
		eng.At(sim.Time(10*time.Millisecond), func() { net.FailLink(failLink) })
		eng.RunFor(2 * time.Second)
		viols := chk.Finish()
		t.Logf("link %d, S_max %d B: %d recoveries checked, %d over the bound, worst %v",
			failLink, cfg.RCC.SMax, chk.GammaChecked(), len(viols), gammaWorst(chk))
		for _, v := range viols {
			t.Errorf("link %d: conformance: %v", failLink, v)
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
func gammaWorst(chk *conformance.Checker) string {
	worst, bound, ratio := sim.Duration(0), sim.Duration(0), -1.0
	for _, r := range chk.Recoveries() {
		b := chk.Bound(r)
		if q := float64(r.Gamma()) / float64(b); q > ratio {
			worst, bound, ratio = r.Gamma(), b, q
		}
	}
	if ratio < 0 {
		return "none"
	}
	return fmt.Sprintf("%v vs %v (%.2f)", time.Duration(worst), time.Duration(bound), ratio)
}
