package experiment

import (
	"testing"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/workload"
)

// TestParallelSweepMatchesSerial runs a full Table 1 column serially and
// with a worker pool; the rendered table must be byte-identical — the pool
// only changes who executes a trial, never the trial set, its inputs, or
// the fold order.
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	opts := DefaultOptions()
	opts.Seed = 42
	opts.DoubleNodeSample = 64

	serial := opts
	serial.Workers = 1
	parallel := opts
	parallel.Workers = 4

	want := RunTable1(Torus8x8, 1, []int{3}, serial).Render()
	got := RunTable1(Torus8x8, 1, []int{3}, parallel).Render()
	if want != got {
		t.Fatalf("parallel table differs from serial:\nserial:\n%s\nparallel:\n%s", want, got)
	}
}

// TestTable3ParallelMatchesSerial sweeps the brute-force trialer with a
// worker pool: a Table 3 column (random activation order, so the per-trial rng
// is in play too) must come out the same at Workers 4 as at Workers 0. The
// brute-force scheme trials through core's walk over per-worker views;
// under `go test -race` a view shared between workers is a reported race.
func TestTable3ParallelMatchesSerial(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 42
	opts.DoubleNodeSample = 64
	opts.Order = core.OrderRandom

	serial := opts
	serial.Workers = 0
	parallel := opts
	parallel.Workers = 4

	want := table3{RunTable3(Torus8x8, []int{5}, serial)}.Render()
	got := table3{RunTable3(Torus8x8, []int{5}, parallel)}.Render()
	if want != got {
		t.Fatalf("parallel table differs from serial:\nserial:\n%s\nparallel:\n%s", want, got)
	}
}

// TestParallelSweepSmall exercises the worker pool on a small network in
// short mode, so `go test -race` covers the fan-out/fold machinery cheaply.
// One manager is established once and shared: the pool workers trial over
// its plan through per-worker views.
func TestParallelSweepSmall(t *testing.T) {
	g := topology.NewMesh(4, 4, 50)
	m := core.NewManager(g, core.DefaultConfig())
	workload.Establish(m, allPairs(g, 1, 3))
	sets := [][]core.Failure{
		AllSingleLinkFailures(g),
		AllSingleNodeFailures(g),
	}

	serial := sweepMany(m, sets, Options{Workers: 1})
	pooled := sweepMany(m, sets, Options{Workers: 4})
	for i := range sets {
		if !sweepResultsEqual(serial[i], pooled[i]) {
			t.Fatalf("set %d: serial %+v != parallel %+v", i, serial[i], pooled[i])
		}
	}
	if pooled[0].Trials != len(sets[0]) || pooled[1].Trials != len(sets[1]) {
		t.Fatalf("trial counts wrong: %d/%d", pooled[0].Trials, pooled[1].Trials)
	}
}

// TestParallelRandomOrderMatchesSerial verifies that OrderRandom sweeps use
// the pool and still reproduce the serial result: each trial's shuffle rng
// is derived from (Seed, trial index), so the schedule cannot leak into the
// tables. Two different pool widths must agree with the serial sweep and
// with each other.
func TestParallelRandomOrderMatchesSerial(t *testing.T) {
	g := topology.NewMesh(3, 3, 20)
	m := core.NewManager(g, core.DefaultConfig())
	workload.Establish(m, allPairs(g, 1, 3))
	sets := [][]core.Failure{AllSingleLinkFailures(g)}
	opts := Options{Order: core.OrderRandom, Seed: 7}
	want := Sweep(m, sets[0], opts)
	for _, workers := range []int{2, 8} {
		o := opts
		o.Workers = workers
		pooled := sweepMany(m, sets, o)
		if !sweepResultsEqual(pooled[0], want) {
			t.Fatalf("OrderRandom pool (workers=%d) result %+v != serial %+v", workers, pooled[0], want)
		}
	}
	// A different seed must change the shuffle streams (sanity check that
	// the per-trial derivation actually feeds Trial).
	reseeded := Sweep(m, sets[0], Options{Order: core.OrderRandom, Seed: 8})
	if reseeded.Trials != want.Trials {
		t.Fatalf("reseeded sweep ran %d trials, want %d", reseeded.Trials, want.Trials)
	}
}

// sweepResultsEqual compares results field-by-field (SweepResult holds a
// map, so == is not available).
func sweepResultsEqual(a, b SweepResult) bool {
	if a.Trials != b.Trials || a.RFast != b.RFast ||
		a.MeanFailedPrimaries != b.MeanFailedPrimaries ||
		a.MeanFailedBackups != b.MeanFailedBackups ||
		a.MeanMuxFailed != b.MeanMuxFailed ||
		a.MeanBackupDead != b.MeanBackupDead ||
		a.TotalFailedPrimaries != b.TotalFailedPrimaries ||
		len(a.ByDegree) != len(b.ByDegree) {
		return false
	}
	for k, v := range a.ByDegree {
		if bv, ok := b.ByDegree[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
