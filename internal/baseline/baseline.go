// Package baseline implements the comparison schemes of the paper's §7.4 and
// §8: brute-force multiplexing (a uniform spare reservation on every link,
// ignoring network state) and recovery by re-establishment from scratch with
// no reserved spare resources ([BAN93]-style).
package baseline

import (
	"math/rand"
	"sort"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// BruteForce evaluates backup activation when every link reserves the same
// fixed amount of spare bandwidth regardless of which backups traverse it.
// The paper sizes this uniform reservation to the *average* spare required
// by the proposed scheme, making the comparison resource-neutral.
//
// The pools are fixed at construction: build it after establishment settles.
// Trial is not safe for concurrent use with itself; parallel sweeps give each
// worker its own NewTrialView.
type BruteForce struct {
	m     *core.Manager
	pools []float64 // by LinkID
	view  *core.TrialView
}

// NewBruteForce wraps an established manager. perLink is the uniform spare
// reservation applied to every link. If capLimit is true the usable spare on
// a link is additionally capped by the link's actual headroom
// (capacity − dedicated), which matters on heavily loaded links.
func NewBruteForce(m *core.Manager, perLink float64, capLimit bool) *BruteForce {
	net := m.Network()
	pools := make([]float64, m.Graph().NumLinks())
	for i := range pools {
		pools[i] = perLink
		if capLimit {
			l := topology.LinkID(i)
			pools[i] = min(perLink, net.Capacity(l)-net.Dedicated(l))
		}
	}
	return &BruteForce{m: m, pools: pools, view: m.NewTrialViewWithPools(pools)}
}

// UniformSpareFromManager returns the proposed scheme's average spare per
// link, the paper's sizing rule for the brute-force comparison.
func UniformSpareFromManager(m *core.Manager) float64 {
	g := m.Graph()
	var total float64
	for _, l := range g.Links() {
		total += m.Network().Spare(l.ID)
	}
	return total / float64(g.NumLinks())
}

// NewTrialView returns a per-goroutine view that trials against the uniform
// pools: core.Manager.Trial's walk with this scheme's number on every link.
func (b *BruteForce) NewTrialView() *core.TrialView {
	return b.m.NewTrialViewWithPools(b.pools)
}

// Trial evaluates a failure event through the scheme's own view.
func (b *BruteForce) Trial(f core.Failure, order core.ActivationOrder, rng *rand.Rand) core.RecoveryStats {
	return b.view.Trial(f, order, rng)
}

// Reestablish evaluates the [BAN93]-style baseline: no backups and no spare
// reservation; after a failure each disabled connection attempts to
// establish a brand-new channel on the residual network. It reports the
// fraction of failed primaries that could be re-established at all (the
// scheme gives no guarantee and is slow — every success still pays a full
// round of signaling, which the protocol-level experiments quantify).
type Reestablish struct {
	m      *core.Manager
	router *routing.Router
}

// NewReestablish wraps a manager whose connections were established without
// backups.
func NewReestablish(m *core.Manager) *Reestablish {
	return &Reestablish{m: m, router: routing.NewRouter(m.Graph())}
}

// Trial simulates post-failure re-establishment: failed primaries retry on
// the residual topology (failed components removed) against the residual
// bandwidth plus their own released reservations, honoring the QoS hop rule.
// Recovered connections' new reservations compete with later retries,
// matching the contention the paper describes.
func (r *Reestablish) Trial(f core.Failure) core.RecoveryStats {
	var stats core.RecoveryStats
	g := r.m.Graph()
	net := r.m.Network()

	// Residual free bandwidth per link: free + what failed channels release.
	freed := make(map[topology.LinkID]float64)
	var needs []*core.DConnection
	for _, conn := range r.m.Connections() {
		if conn.Primary == nil {
			continue
		}
		if f.NodeFailed(conn.Src) || f.NodeFailed(conn.Dst) {
			if f.HitsPath(conn.Primary.Path) {
				stats.ExcludedConns++
			}
			continue
		}
		if f.HitsPath(conn.Primary.Path) {
			stats.FailedPrimaries++
			needs = append(needs, conn)
			for _, l := range conn.Primary.Path.Links() {
				freed[l] += conn.Spec.Bandwidth
			}
		}
	}
	sort.Slice(needs, func(i, j int) bool { return needs[i].ID < needs[j].ID })

	taken := make(map[topology.LinkID]float64)
	for _, conn := range needs {
		bw := conn.Spec.Bandwidth
		base := r.router.Distance(conn.Src, conn.Dst)
		c := routing.Constraint{
			MaxHops: base + conn.Spec.SlackHops,
			LinkAllowed: func(l topology.LinkID) bool {
				if f.LinkFailed(l) {
					return false
				}
				lk := g.Link(l)
				if f.NodeFailed(lk.From) || f.NodeFailed(lk.To) {
					return false
				}
				return net.Free(l)+freed[l]-taken[l] >= bw-1e-9
			},
			NodeAllowed: func(n topology.NodeID) bool { return !f.NodeFailed(n) },
		}
		if p, ok := r.router.ShortestPath(conn.Src, conn.Dst, c); ok {
			for _, l := range p.Links() {
				taken[l] += bw
			}
			stats.FastRecovered++ // "recovered" here, though not fast: see docs
		}
	}
	return stats
}

// Spec re-exports the substrate's traffic spec type for baseline callers.
type Spec = rtchan.TrafficSpec
