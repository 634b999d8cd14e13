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

// forEach is the package's one worker pool: it calls fn(w, i) once for
// every i in [0, n), where w < workers names the calling worker, so fn can
// keep per-worker state in a slice indexed by w. With workers <= 1 (or
// n <= 1) it runs inline in index order on worker 0; otherwise each worker
// claims the next index until none are left.
func forEach(n, workers int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// sweepJob addresses one trial in a flattened batch of failure lists.
type sweepJob struct {
	set, idx int
}

// sweepMany evaluates several failure lists against one shared trialer,
// returning one SweepResult per list. With opts.Workers > 1 the trials are
// fanned out over forEach's pool; every worker trials against the same
// NetworkPlan through its own TrialView (per-goroutine scratch, shared
// read-only state), so the pool pays no per-worker establishment cost; a
// serial sweep holds one view. Results are stored by trial index and folded
// in list order, so the output is bit-identical to a serial run.
//
// OrderRandom sweeps parallelize too: each trial derives its shuffle rng
// from (Options.Seed, trial index) — see Options.trialRNG — so the shuffle
// is a function of the trial alone, not of the execution schedule.
func sweepMany(t Trialer, sets [][]core.Failure, opts Options) []SweepResult {
	var jobs []sweepJob
	stats := make([][]core.RecoveryStats, len(sets))
	for si, fs := range sets {
		stats[si] = make([]core.RecoveryStats, len(fs))
		for fi := range fs {
			jobs = append(jobs, sweepJob{set: si, idx: fi})
		}
	}

	views := make([]*core.TrialView, max(min(opts.workerCount(), len(jobs)), 1))
	for w := range views {
		views[w] = t.NewTrialView()
	}
	forEach(len(jobs), len(views), func(w, j int) {
		job := jobs[j]
		stats[job.set][job.idx] = views[w].Trial(sets[job.set][job.idx], opts.Order, opts.trialRNG(job.idx))
	})

	out := make([]SweepResult, len(sets))
	for i := range sets {
		out[i] = foldStats(stats[i])
	}
	return out
}
