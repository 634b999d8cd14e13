package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// The batch pipeline's contract is bit-identical equivalence: EstablishBatch
// must leave the manager in exactly the state a sequential Establish loop
// would — same connection and channel ids, same paths, same Π sets in the
// same order, same spare pools, same rejections. These tests check that
// exhaustively over randomized topologies, workloads, worker counts, and
// configuration variants (including the strict-plan paths: delay contracts
// and load-aware routing). The -race CI job runs them with the race
// detector across the planner/committer concurrency.

type batchVariant struct {
	name string
	cfg  func(seed int64) Config
	spec func(rng *rand.Rand) rtchan.TrafficSpec
}

func defaultBatchSpec(rng *rand.Rand) rtchan.TrafficSpec {
	spec := rtchan.DefaultSpec()
	if rng.Intn(4) == 0 {
		spec.Bandwidth = 1 + float64(rng.Intn(3))
	}
	return spec
}

func batchVariants() []batchVariant {
	return []batchVariant{
		{
			name: "default",
			cfg:  func(int64) Config { return DefaultConfig() },
			spec: defaultBatchSpec,
		},
		{
			name: "delay-bound", // strict plans: explicit delay contracts
			cfg:  func(int64) Config { return DefaultConfig() },
			spec: func(rng *rand.Rand) rtchan.TrafficSpec {
				spec := defaultBatchSpec(rng)
				if rng.Intn(2) == 0 {
					spec.DelayBound = time.Duration(5+rng.Intn(50)) * time.Millisecond
				}
				return spec
			},
		},
		{
			name: "load-aware", // strict plans: spare-aware backup weights
			cfg: func(int64) Config {
				cfg := DefaultConfig()
				cfg.BackupRouting = RouteLoadAware
				return cfg
			},
			spec: defaultBatchSpec,
		},
		{
			name: "max-flow",
			cfg: func(int64) Config {
				cfg := DefaultConfig()
				cfg.BackupRouting = RouteMaxFlow
				return cfg
			},
			spec: defaultBatchSpec,
		},
		{
			name: "tiebreak", // randomized routing: must fall back to sequential
			cfg: func(seed int64) Config {
				cfg := DefaultConfig()
				cfg.TieBreak = rand.New(rand.NewSource(seed + 7))
				return cfg
			},
			spec: defaultBatchSpec,
		},
	}
}

// batchTopology builds a deliberately tight network so a good fraction of
// requests are rejected: rejections must be bit-identical too.
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

func batchRequests(rng *rand.Rand, g *topology.Graph, n int, spec func(*rand.Rand) rtchan.TrafficSpec) []EstablishRequest {
	reqs := make([]EstablishRequest, 0, n)
	nodes := g.NumNodes()
	for len(reqs) < n {
		s := topology.NodeID(rng.Intn(nodes))
		d := topology.NodeID(rng.Intn(nodes))
		if s == d && rng.Intn(8) != 0 {
			continue // keep a few src==dst requests: rejections must match too
		}
		degrees := make([]int, rng.Intn(3))
		for j := range degrees {
			degrees[j] = 1 + rng.Intn(6)
		}
		reqs = append(reqs, EstablishRequest{Src: s, Dst: d, Spec: spec(rng), Degrees: degrees})
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
			if es.id != eb.id || es.nu != eb.nu {
				t.Fatalf("%s: link %d entry %d: chan %d/ν%g vs chan %d/ν%g",
					ctx, l, i, es.id, es.nu, eb.id, eb.nu)
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
		if rs, rb := lms.requiredSpareRO(), lmb.requiredSpareRO(); math.Abs(rs-rb) > 1e-9 {
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

func TestEstablishBatchMatchesSequential(t *testing.T) {
	workersList := []int{2, 3, 8}
	for _, v := range batchVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := batchTopology(rng, seed)
				reqs := batchRequests(rng, g, 90, v.spec)

				ms := NewManager(g, v.cfg(seed))
				seqConns := make([]*DConnection, len(reqs))
				seqErrs := make([]error, len(reqs))
				for i := range reqs {
					r := &reqs[i]
					seqConns[i], seqErrs[i] = ms.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
				}

				for _, workers := range workersList {
					mb := NewManager(g, v.cfg(seed))
					res := mb.EstablishBatch(reqs, BatchOptions{Workers: workers})
					ctx := v.name + "/" + string(rune('0'+workers)) + "w"
					if got := res.Established + res.Rejected; got != len(reqs) {
						t.Fatalf("%s seed %d: %d outcomes for %d requests", ctx, seed, got, len(reqs))
					}
					for i := range reqs {
						if (seqErrs[i] == nil) != (res.Errs[i] == nil) {
							t.Fatalf("%s seed %d req %d: sequential err %v, batch err %v",
								ctx, seed, i, seqErrs[i], res.Errs[i])
						}
						if seqErrs[i] != nil && seqErrs[i].Error() != res.Errs[i].Error() {
							t.Fatalf("%s seed %d req %d: error %q vs %q",
								ctx, seed, i, seqErrs[i], res.Errs[i])
						}
						if seqConns[i] != nil && seqConns[i].ID != res.Conns[i].ID {
							t.Fatalf("%s seed %d req %d: conn id %d vs %d",
								ctx, seed, i, seqConns[i].ID, res.Conns[i].ID)
						}
					}
					requireSameManagers(t, ctx, ms, mb)
					if err := mb.CheckMuxInvariants(); err != nil {
						t.Fatalf("%s seed %d: %v", ctx, seed, err)
					}
					if err := mb.plan.net.CheckInvariants(); err != nil {
						t.Fatalf("%s seed %d: %v", ctx, seed, err)
					}
				}
			}
		})
	}
}

// TestEstablishBatchReplans pins that the pipeline actually exercises both
// the speculative fast path and the replan path on a contended workload (if
// every plan were replanned the pipeline would silently degrade to
// sequential; if none were, the validation logic would be untested).
func TestEstablishBatchReplans(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := topology.NewTorus(5, 5, 4)
	reqs := batchRequests(rng, g, 150, defaultBatchSpec)
	m := NewManager(g, DefaultConfig())
	res := m.EstablishBatch(reqs, BatchOptions{Workers: 4})
	if res.Planned+res.Replanned != len(reqs) {
		t.Fatalf("planned %d + replanned %d != %d requests", res.Planned, res.Replanned, len(reqs))
	}
	if res.Planned == 0 {
		t.Fatal("no plan survived speculation on a 25-node torus; validation is too pessimistic")
	}
	if res.Established == 0 || res.Rejected == 0 {
		t.Fatalf("workload not contended enough: %d established, %d rejected", res.Established, res.Rejected)
	}
}

// TestEstablishBatchInterleavesWithForeignWrites checks correctness (not
// identity) when a batch races other mutating entry points: the epoch check
// must force replans instead of committing stale plans.
func TestEstablishBatchSequentialFallback(t *testing.T) {
	g := topology.NewTorus(4, 4, 10)
	m := NewManager(g, DefaultConfig())
	reqs := []EstablishRequest{
		{Src: 0, Dst: 5, Spec: rtchan.DefaultSpec(), Degrees: []int{1}},
		{Src: 1, Dst: 6, Spec: rtchan.DefaultSpec(), Degrees: []int{2}},
	}
	res := m.EstablishBatch(reqs, BatchOptions{Workers: 0})
	if res.Established != 2 {
		t.Fatalf("sequential fallback established %d of 2", res.Established)
	}
	if res.Planned != 0 || res.Replanned != 0 {
		t.Fatalf("fallback path should not report pipeline stats, got %d/%d", res.Planned, res.Replanned)
	}
}

// TestEstablishBatchAllocs pins the pipelined establishment path end to end:
// a full 4x4-torus all-pairs batch at 4 planners, then its teardown. It
// guards the pooled plan buffers, planner contexts and router leases — a leak
// shows up as per-request allocation growth across batches.
func TestEstablishBatchAllocs(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := NewManager(g, DefaultConfig())
	var reqs []EstablishRequest
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s != d {
				reqs = append(reqs, EstablishRequest{
					Src: topology.NodeID(s), Dst: topology.NodeID(d), Spec: rtchan.DefaultSpec(), Degrees: []int{3},
				})
			}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		res := m.EstablishBatch(reqs, BatchOptions{Workers: 4})
		if res.Established != len(reqs) {
			t.Fatalf("established %d of %d", res.Established, len(reqs))
		}
		for _, c := range res.Conns {
			if err := m.Teardown(c.ID); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Measured 2,173 for 240 requests (≈9 per establishment, as in
	// TestEstablishAllocs, plus the batch's result slices and goroutines);
	// ≈3,150 under -race, where sync.Pool drops a quarter of its Puts.
	const ceiling = 4200
	if allocs > ceiling {
		t.Fatalf("batch+teardown = %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("batch+teardown = %.0f allocs/op", allocs)
}
