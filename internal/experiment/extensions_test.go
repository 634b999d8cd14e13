package experiment

import (
	"testing"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/workload"
)

func TestScalabilityMonotoneAndSound(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	// A reduced sweep keeps the test fast: reuse the driver's internals by
	// checking the full driver on its two smallest sizes via RunScalability
	// would still establish 10k+ connections; instead validate the RCC
	// provisioning helper and one small establishment directly.
	g := NewGraph(Torus8x8)
	m := core.NewManager(g, DefaultOptions().config())
	workload.Establish(m, allPairs(g, 1, 3))
	maxChans, bytes := bcpd.RCCProvisioning(m)
	if maxChans <= 0 || bytes != maxChans*14 {
		t.Fatalf("provisioning: %d channels, %d bytes", maxChans, bytes)
	}
	// Every link pair's channel count is at most the reported max.
	for _, l := range g.Links() {
		count := len(m.Network().ChannelsOnLink(l.ID))
		if rev := g.Reverse(l.ID); rev >= 0 {
			count += len(m.Network().ChannelsOnLink(rev))
		}
		if count > maxChans {
			t.Fatalf("link %d pair has %d channels > reported max %d", l.ID, count, maxChans)
		}
	}
}

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
