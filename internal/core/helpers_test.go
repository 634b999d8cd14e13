package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Shared by the randomized equivalence tests (establishment variants,
// ClaimBatch, coalesced reconfiguration): a tight random topology, a random
// request list, and the comparison of two managers that must be identical.

// establishReq is the arguments of one Manager.Establish call.
type establishReq struct {
	Src, Dst topology.NodeID
	Spec     rtchan.TrafficSpec
	Degrees  []int
}

func defaultBatchSpec(rng *rand.Rand) rtchan.TrafficSpec {
	spec := rtchan.DefaultSpec()
	if rng.Intn(4) == 0 {
		spec.Bandwidth = 1 + float64(rng.Intn(3))
	}
	return spec
}

// batchTopology builds a deliberately tight network so a good fraction of
// requests are rejected: what a rejection leaves behind is under test too.
func batchTopology(rng *rand.Rand, seed int64) *topology.Graph {
	switch rng.Intn(3) {
	case 0:
		return topology.NewTorus(4+rng.Intn(3), 4+rng.Intn(3), 4+float64(rng.Intn(4)))
	case 1:
		return topology.NewMesh(4+rng.Intn(3), 4+rng.Intn(3), 5+float64(rng.Intn(4)))
	default:
		return topology.NewRandom(24+rng.Intn(12), 3.5, 5, seed)
	}
}

func batchRequests(rng *rand.Rand, g *topology.Graph, n int, spec func(*rand.Rand) rtchan.TrafficSpec) []establishReq {
	reqs := make([]establishReq, 0, n)
	nodes := g.NumNodes()
	for len(reqs) < n {
		s := topology.NodeID(rng.Intn(nodes))
		d := topology.NodeID(rng.Intn(nodes))
		if s == d && rng.Intn(8) != 0 {
			continue // keep a few src==dst requests: those rejections count too
		}
		degrees := make([]int, rng.Intn(3))
		for j := range degrees {
			degrees[j] = 1 + rng.Intn(6)
		}
		reqs = append(reqs, establishReq{Src: s, Dst: d, Spec: spec(rng), Degrees: degrees})
	}
	return reqs
}

// requireSameManagers fails unless the two managers are bit-identical in
// every externally observable and every multiplexing-internal respect.
func requireSameManagers(t *testing.T, ctx string, ms, mb *Manager) {
	t.Helper()
	if ms.nextConn != mb.nextConn {
		t.Fatalf("%s: nextConn %d vs %d", ctx, ms.nextConn, mb.nextConn)
	}
	seq, bat := ms.Connections(), mb.Connections()
	if len(seq) != len(bat) {
		t.Fatalf("%s: conn count %d vs %d", ctx, len(seq), len(bat))
	}
	for i, cs := range seq {
		cb, id := bat[i], cs.ID
		if cb.ID != id {
			t.Fatalf("%s: Connections()[%d] = %d vs %d", ctx, i, id, cb.ID)
		}
		if cs.Src != cb.Src || cs.Dst != cb.Dst {
			t.Fatalf("%s: conn %d endpoints differ", ctx, id)
		}
		requireSameChannel(t, ctx, cs.Primary, cb.Primary)
		if len(cs.Backups) != len(cb.Backups) {
			t.Fatalf("%s: conn %d backups %d vs %d", ctx, id, len(cs.Backups), len(cb.Backups))
		}
		for i := range cs.Backups {
			requireSameChannel(t, ctx, cs.Backups[i], cb.Backups[i])
			if cs.Degrees[i] != cb.Degrees[i] {
				t.Fatalf("%s: conn %d degree[%d] %d vs %d", ctx, id, i, cs.Degrees[i], cb.Degrees[i])
			}
		}
	}
	g := ms.Graph()
	for l := 0; l < g.NumLinks(); l++ {
		ll := topology.LinkID(l)
		if ds, db := ms.plan.net.Dedicated(ll), mb.plan.net.Dedicated(ll); math.Abs(ds-db) > 1e-9 {
			t.Fatalf("%s: link %d dedicated %g vs %g", ctx, l, ds, db)
		}
		if ss, sb := ms.plan.net.Spare(ll), mb.plan.net.Spare(ll); math.Abs(ss-sb) > 1e-9 {
			t.Fatalf("%s: link %d spare %g vs %g", ctx, l, ss, sb)
		}
		lms, lmb := &ms.plan.mux[l], &mb.plan.mux[l]
		if len(lms.entries) != len(lmb.entries) {
			t.Fatalf("%s: link %d entry count %d vs %d", ctx, l, len(lms.entries), len(lmb.entries))
		}
		for i := range lms.entries {
			es, eb := &lms.entries[i], &lmb.entries[i]
			if nus, nub := ms.plan.thr.nus[es.cls], mb.plan.thr.nus[eb.cls]; es.id != eb.id || nus != nub {
				t.Fatalf("%s: link %d entry %d: chan %d/ν%g vs chan %d/ν%g",
					ctx, l, i, es.id, nus, eb.id, nub)
			}
			if math.Abs(es.req-eb.req) > 1e-9 {
				t.Fatalf("%s: link %d entry %d req %g vs %g", ctx, l, i, es.req, eb.req)
			}
			// Bit-identity: Π decoded in slot order must match member by member.
			ps, pb := lms.piIDs(i), lmb.piIDs(i)
			if len(ps) != len(pb) {
				t.Fatalf("%s: link %d entry %d Π size %d vs %d", ctx, l, i, len(ps), len(pb))
			}
			for j := range ps {
				if ps[j] != pb[j] {
					t.Fatalf("%s: link %d entry %d Π[%d] = %d vs %d", ctx, l, i, j, ps[j], pb[j])
				}
			}
		}
		if rs, rb := lms.requiredSpare(), lmb.requiredSpare(); math.Abs(rs-rb) > 1e-9 {
			t.Fatalf("%s: link %d required spare %g vs %g", ctx, l, rs, rb)
		}
	}
}

func requireSameChannel(t *testing.T, ctx string, a, b *rtchan.Channel) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: channel presence differs", ctx)
	}
	if a == nil {
		return
	}
	if a.ID != b.ID {
		t.Fatalf("%s: channel id %d vs %d", ctx, a.ID, b.ID)
	}
	la, lb := a.Path.Links(), b.Path.Links()
	if len(la) != len(lb) {
		t.Fatalf("%s: channel %d path length %d vs %d", ctx, a.ID, len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("%s: channel %d link[%d] %d vs %d", ctx, a.ID, i, la[i], lb[i])
		}
	}
}
