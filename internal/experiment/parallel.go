package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/rtcl/bcp/internal/core"
)

// workerCount resolves Options.Workers to an actual pool size.
func (o Options) workerCount() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// sweepJob addresses one trial in a flattened batch of failure lists.
type sweepJob struct {
	set, idx int
}

// viewable is satisfied by *core.Manager and *baseline.BruteForce: a trialer
// that can hand out cheap per-goroutine read views over its shared plan.
type viewable interface {
	NewTrialView() *core.TrialView
}

// workerTrialer returns the Trialer one pool worker should call: a
// per-worker TrialView (private scratch over the shared plan) when the
// trialer hands them out, the trialer itself otherwise.
func workerTrialer(t Trialer) Trialer {
	if v, ok := t.(viewable); ok {
		return v.NewTrialView()
	}
	return t
}

// sweepMany evaluates several failure lists against one shared trialer,
// returning one SweepResult per list. With opts.Workers > 1 the trials are
// fanned out over a worker pool; every worker trials against the same
// NetworkPlan through its own TrialView (per-goroutine scratch, shared
// read-only state), so the pool pays no per-worker establishment cost.
// Results are stored by trial index and folded in list order, so the output
// is bit-identical to a serial run.
//
// OrderRandom sweeps parallelize too: each trial derives its shuffle rng
// from (Options.Seed, trial index) — see Options.trialRNG — so the shuffle
// is a function of the trial alone, not of the execution schedule.
func sweepMany(t Trialer, sets [][]core.Failure, opts Options) []SweepResult {
	workers := opts.workerCount()
	total := 0
	for _, fs := range sets {
		total += len(fs)
	}
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		out := make([]SweepResult, len(sets))
		for i, fs := range sets {
			out[i] = Sweep(t, fs, opts)
		}
		return out
	}

	jobs := make([]sweepJob, 0, total)
	stats := make([][]core.RecoveryStats, len(sets))
	for si, fs := range sets {
		stats[si] = make([]core.RecoveryStats, len(fs))
		for fi := range fs {
			jobs = append(jobs, sweepJob{set: si, idx: fi})
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wt := workerTrialer(t)
			for {
				j := next.Add(1) - 1
				if j >= int64(len(jobs)) {
					return
				}
				job := jobs[j]
				stats[job.set][job.idx] = wt.Trial(sets[job.set][job.idx], opts.Order, opts.trialRNG(job.idx))
			}
		}()
	}
	wg.Wait()

	out := make([]SweepResult, len(sets))
	for i := range sets {
		out[i] = foldStats(stats[i])
	}
	return out
}

// SweepParallel evaluates one failure list against a shared trialer with
// opts.Workers pool workers (see sweepMany). It is the parallel counterpart
// of Sweep and returns the identical result for every worker count.
func SweepParallel(t Trialer, failures []core.Failure, opts Options) SweepResult {
	return sweepMany(t, [][]core.Failure{failures}, opts)[0]
}
