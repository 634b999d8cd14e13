package experiment

import (
	"testing"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/workload"
)

// TestMixedDegreesNeedPriorityActivation is the negative control for
// Table 2: with the §3.2 degree-restricted spare sizing, the mux=1 class
// keeps its single-failure guarantee only when activation is
// priority-ordered. Processing activations in plain establishment order
// lets cheap classes drain pools sized for the critical class.
func TestMixedDegreesNeedPriorityActivation(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	opts := DefaultOptions()
	g := NewGraph(Torus8x8)
	m := core.NewManager(g, opts.config())
	workload.Establish(m, allPairs(g, 1, 1, 3, 5, 6))

	withPriority := opts
	withPriority.Order = core.OrderByPriority
	pr := Sweep(m, AllSingleLinkFailures(g), withPriority).ByDegree
	if pr[1] != 1 {
		t.Fatalf("priority order: mux=1 class = %v, want 1", pr[1])
	}
	plain := Sweep(m, AllSingleLinkFailures(g), opts).ByDegree
	if plain[1] >= 1 {
		t.Fatalf("plain order unexpectedly preserved the mux=1 guarantee (%v); the negative control is vacuous", plain[1])
	}
}
