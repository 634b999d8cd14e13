package core

import (
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// loadedEvalTorus establishes up to limit connections of the paper's
// all-pairs workload (one backup at degree 3) on the 8x8 evaluation torus.
func loadedEvalTorus(limit int) *Manager {
	g := topology.NewTorus(8, 8, 200)
	m := NewManager(g, DefaultConfig())
	n := g.NumNodes()
	loaded := 0
	for s := 0; s < n && loaded < limit; s++ {
		for d := 0; d < n && loaded < limit; d++ {
			if s == d {
				continue
			}
			if _, err := m.Establish(topology.NodeID(s), topology.NodeID(d), rtchan.DefaultSpec(), []int{3}); err == nil {
				loaded++
			}
		}
	}
	return m
}

// TestEstablishAllocs pins the allocation budget of the sequential
// establishment path. The plan phase runs entirely on reusable arenas
// (router scratch, plan buffers, Π scratch), so the only allocations left
// are the objects that outlive the call: two paths, the DConnection and its
// channels. Π membership lands in the links' bit matrices and the primary's
// signature in a recycled slab row, which in steady state are there already.
// A regression here means a scratch buffer leaked into the steady-state path.
func TestEstablishAllocs(t *testing.T) {
	// Load the network the way bench_test.go's BenchmarkSingleEstablish
	// does, so admission scans run against populated Π structures.
	m := loadedEvalTorus(2000)
	spec := rtchan.DefaultSpec()

	allocs := testing.AllocsPerRun(200, func() {
		conn, err := m.Establish(0, 36, spec, []int{3})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Teardown(conn.ID); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 9.0 (a path is two allocations); the ceiling leaves slack for
	// map-internal variance, not for regressions.
	const ceiling = 11
	if allocs > ceiling {
		t.Fatalf("establish+teardown = %.1f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("establish+teardown = %.1f allocs/op", allocs)

	// Teardown alone allocates nothing: unwiring a backup is a pass over the
	// link's matrix rows. One connection per measured call, plus the warm-up
	// call AllocsPerRun makes.
	const runs = 100
	ids := make([]rtchan.ConnID, 0, runs+1)
	for len(ids) <= runs {
		conn, err := m.Establish(0, 36, spec, []int{3})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, conn.ID)
	}
	teardown := testing.AllocsPerRun(runs, func() {
		id := ids[len(ids)-1]
		ids = ids[:len(ids)-1]
		if err := m.Teardown(id); err != nil {
			t.Fatal(err)
		}
	})
	if teardown != 0 {
		t.Fatalf("teardown = %.1f allocs/op, want 0", teardown)
	}
}

// TestTrialAllocs pins the allocation budget of one failure trial on the
// fully loaded evaluation network — the inner loop of every R_fast sweep. A
// trial is a pure read over the plan into the manager's reusable scratch;
// only the per-degree result map it returns allocates.
func TestTrialAllocs(t *testing.T) {
	m := loadedEvalTorus(64 * 63)
	f := SingleNode(27)
	allocs := testing.AllocsPerRun(10, func() {
		if stats := m.Trial(f, OrderByConn, nil); stats.FailedPrimaries == 0 {
			t.Fatal("node 27 carries no primaries")
		}
	})
	// Measured 2.0; the ceiling catches a scratch buffer regressing to
	// per-trial allocation (hundreds of affected channels), not noise.
	const ceiling = 4
	if allocs > ceiling {
		t.Fatalf("trial = %.1f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("trial = %.1f allocs/op", allocs)
}
