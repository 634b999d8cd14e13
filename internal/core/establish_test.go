package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

type establishVariant struct {
	name string
	spec func(rng *rand.Rand) rtchan.TrafficSpec
}

func establishVariants() []establishVariant {
	return []establishVariant{
		{name: "default", spec: defaultBatchSpec},
		{
			name: "delay-bound", // explicit delay contracts: the analytic admission test
			spec: func(rng *rand.Rand) rtchan.TrafficSpec {
				spec := defaultBatchSpec(rng)
				if rng.Intn(2) == 0 {
					spec.DelayBound = time.Duration(5+rng.Intn(50)) * time.Millisecond
				}
				return spec
			},
		},
	}
}

// TestEstablishVariantsKeepInvariants is the randomized run of plan +
// commitPlan under every configuration that changes what a plan decides:
// two variants over tight tori, meshes and random graphs. After the fill the
// multiplexing and reservation invariants hold; a rejection consumed no
// connection id and moved no link's accounts; and a second manager fed the
// same requests ends in the identical state (establishment is a function of
// the request sequence).
func TestEstablishVariantsKeepInvariants(t *testing.T) {
	for _, v := range establishVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			established, rejected := 0, 0
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := batchTopology(rng, seed)
				reqs := batchRequests(rng, g, 90, v.spec)
				ctx := fmt.Sprintf("%s seed %d", v.name, seed)

				cfg := DefaultConfig()
				m, twin := NewManager(g, cfg), NewManager(g, cfg)
				spare := make([]float64, g.NumLinks())
				dedicated := make([]float64, g.NumLinks())
				for i := range reqs {
					r := &reqs[i]
					for l := range spare {
						spare[l] = m.plan.net.Spare(topology.LinkID(l))
						dedicated[l] = m.plan.net.Dedicated(topology.LinkID(l))
					}
					next, live := m.nextConn, m.NumConnections()
					conn, err := m.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
					_, twinErr := twin.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
					if (err == nil) != (twinErr == nil) || (err != nil && err.Error() != twinErr.Error()) {
						t.Fatalf("%s req %d: err %v, twin err %v", ctx, i, err, twinErr)
					}
					if err == nil {
						established++
						if conn.ID != next || m.nextConn != next+1 {
							t.Fatalf("%s req %d: conn id %d after nextConn %d", ctx, i, conn.ID, next)
						}
						continue
					}
					rejected++
					if m.nextConn != next || m.NumConnections() != live {
						t.Fatalf("%s req %d: rejection moved nextConn %d→%d, conns %d→%d",
							ctx, i, next, m.nextConn, live, m.NumConnections())
					}
					for l := range spare {
						ll := topology.LinkID(l)
						if m.plan.net.Spare(ll) != spare[l] || m.plan.net.Dedicated(ll) != dedicated[l] {
							t.Fatalf("%s req %d: rejection moved link %d: spare %g→%g, dedicated %g→%g", ctx, i, l,
								spare[l], m.plan.net.Spare(ll), dedicated[l], m.plan.net.Dedicated(ll))
						}
					}
				}
				requireSameManagers(t, ctx, m, twin)
				if err := m.CheckMuxInvariants(); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				if err := m.plan.net.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			}
			if established == 0 || rejected == 0 {
				t.Fatalf("corpus not contended: %d established, %d rejected", established, rejected)
			}
		})
	}
}
