package core

import (
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// TestEstablishAllocs pins the allocation budget of the sequential
// establishment path. The plan phase runs entirely on reusable arenas
// (router scratch, plan buffers, Π scratch), so the only allocations left
// are the objects that outlive the call: two paths, the DConnection and its
// channels. Π membership lands in the links' bit matrices and the primary's
// signature in a recycled slab row, which in steady state are there already.
// A regression here means a scratch buffer leaked into the steady-state path.
func TestEstablishAllocs(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	m := NewManager(g, DefaultConfig())
	spec := rtchan.DefaultSpec()

	// Load the network the way bench_test.go's BenchmarkSingleEstablish
	// does, so admission scans run against populated Π structures.
	n := g.NumNodes()
	loaded := 0
	for s := 0; s < n && loaded < 2000; s++ {
		for d := 0; d < n && loaded < 2000; d++ {
			if s == d {
				continue
			}
			if _, err := m.Establish(topology.NodeID(s), topology.NodeID(d), spec, []int{3}); err == nil {
				loaded++
			}
		}
	}

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
