package core

import (
	"runtime"
	"testing"
	"unsafe"

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
// trial is a pure read over the plan into the view's reusable scratch;
// only the per-degree result map it returns allocates.
func TestTrialAllocs(t *testing.T) {
	m := loadedEvalTorus(64 * 63)
	f := SingleNode(27)
	v := m.NewTrialView()
	allocs := testing.AllocsPerRun(10, func() {
		if stats := v.Trial(f, OrderByConn, nil); stats.FailedPrimaries == 0 {
			t.Fatal("node 27 carries no primaries")
		}
	})
	// Measured 2.0: the map's header and its one group.
	const ceiling = 2
	if allocs > ceiling {
		t.Fatalf("trial = %.1f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("trial = %.1f allocs/op", allocs)

	// A holder's snapshot and marks are sized from the live population, so
	// after a write that keeps its size (a connection torn down and the same
	// pair established again) the recopy reuses every buffer.
	var h trialScratch
	h.begin(&m.plan)
	warm := h.snap
	conn := m.Connections()[100]
	if err := m.Teardown(conn.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Establish(conn.Src, conn.Dst, conn.Spec, conn.Degrees); err != nil {
		t.Fatal(err)
	}
	// The bracket counts every goroutine's mallocs, the runtime's included:
	// it allocated 96 bytes while a GC cycle was in flight and five objects
	// when it started an OS thread, and either inside the bracket reads as
	// begin's. In 4,000 brackets beside a second loaded process on two cores
	// begin saw 3–4 such mallocs and a no-allocation spin in its place 9.
	// Finishing the cycle first and measuring on one P saw none in 24,000.
	runtime.GC()
	procs := runtime.GOMAXPROCS(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.begin(&m.plan)
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(procs)
	if len(h.snap.refs) != len(warm.refs) || len(h.snap.bkLinks) != len(warm.bkLinks) {
		t.Fatalf("population changed size: %d refs and %d backup links, was %d and %d",
			len(h.snap.refs), len(h.snap.bkLinks), len(warm.refs), len(warm.bkLinks))
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("recopying a same-sized population allocated %d times, want 0", n)
	}
	// One holder's memory on the 4,032-connection torus, against the
	// plan's own several megabytes.
	bytes := holderBytes(&h)
	if bytes > 1.25e6 {
		t.Fatalf("one holder's snapshot and marks take %d bytes, ceiling 1.25 MB", bytes)
	}
	t.Logf("one holder: %d bytes (%d refs, %d connections, %d backups)", bytes, len(h.snap.refs), len(h.snap.conns), len(h.snap.backups))
}

// holderBytes is the memory behind a trial holder's snapshot and marks.
func holderBytes(t *trialScratch) int {
	s := &t.snap
	size := func(n int, elem uintptr) int { return n * int(elem) }
	return size(cap(s.runs), unsafe.Sizeof(linkRun{})) +
		size(cap(s.refs), unsafe.Sizeof(chanRef{})) +
		size(cap(s.conns), unsafe.Sizeof(connRec{})) +
		size(cap(s.backups), unsafe.Sizeof(backupRec{})) +
		size(cap(s.bkLinks), unsafe.Sizeof(topology.LinkID(0))) +
		size(cap(s.avail)+cap(t.claim), unsafe.Sizeof(float64(0))) +
		size(cap(s.alpha), unsafe.Sizeof(0)) +
		size(cap(t.conn), unsafe.Sizeof(connMark{})) +
		size(cap(t.bkHit), unsafe.Sizeof(uint32(0))) +
		size(cap(t.degStat), unsafe.Sizeof(DegreeStats{})) +
		size(cap(t.conns)+cap(t.needs)+cap(t.winners), unsafe.Sizeof(int32(0))) +
		size(cap(t.need.words), unsafe.Sizeof(uint64(0)))
}
