package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// sample is one timed operation: when it ended (nanoseconds since the
// measured window opened) and how long it took.
type sample struct {
	at  int64
	dur int64
}

// series collects the samples of one timing inside one measured window.
type series struct {
	s []sample
}

func newSeries(capacity int) *series { return &series{s: make([]sample, 0, capacity)} }

func (x *series) add(at, dur int64) { x.s = append(x.s, sample{at, dur}) }

func (x *series) durations() []float64 { return durations(x.s) }

func durations(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.dur)
	}
	return out
}

// percentile returns the p-quantile (0..1) of sorted by linear interpolation
// between order statistics, the rule numpy and Python's "inclusive" method
// use. sorted must be ascending; an empty slice yields NaN.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// pooled summarises every sample of a series at once; an empty series reads
// NaN throughout.
type pooled struct {
	n                        int
	q1, median, q3, p95, p99 float64
}

func pool(v []float64) pooled {
	s := sortedCopy(v)
	return pooled{
		n:      len(s),
		q1:     percentile(s, 0.25),
		median: percentile(s, 0.5),
		q3:     percentile(s, 0.75),
		p95:    percentile(s, 0.95),
		p99:    percentile(s, 0.99),
	}
}

// beyond is how many samples a segment must hold past the percentile asked
// for before its value counts: 20 samples for a median, 200 for a p95, 1000
// for a p99. A percentile with fewer samples beyond it is an order statistic
// of a handful of operations, and the minimum of many such values drifts down
// to the median.
const beyond = 10

// bucket splits the window [0, segLen*nseg) into nseg equal segments by each
// sample's end time and returns the durations inside each, sorted. Samples
// ending after the window are ignored, so a last operation that overran the
// deadline never forms a thin extra segment.
func bucket(s []sample, segLen int64, nseg int) [][]float64 {
	if segLen <= 0 || nseg <= 0 {
		return nil
	}
	buckets := make([][]float64, nseg)
	for _, x := range s {
		i := int(x.at / segLen)
		if x.at < 0 || i >= nseg {
			continue
		}
		buckets[i] = append(buckets[i], float64(x.dur))
	}
	for _, b := range buckets {
		sort.Float64s(b)
	}
	return buckets
}

// segmentStats returns the p-quantile of the durations inside every segment
// that holds at least need samples.
func segmentStats(s []sample, segLen int64, nseg int, p float64, need int) []float64 {
	var out []float64
	for _, b := range bucket(s, segLen, nseg) {
		if len(b) >= need {
			out = append(out, percentile(b, p))
		}
	}
	return out
}

// quiet is the estimator for the live workload's trial and boot times, which
// are waits on timers and hand-offs more than CPU work, so the reference
// program of calib.go says little about them. Interference from neighbours
// only ever slows a trial down, so the per-segment statistic is distorted
// upward in disturbed segments and not at all in quiet ones, and the quietest
// segment reads the undisturbed machine as long as the window has one.
// (README.md, "Estimator": a run that falls wholly inside a slow spell has
// none, which is why the CPU-bound workloads use calibrated instead.)
//
// The window is cut into segments of length seg. A segment counts only when
// it holds the samples the percentile needs (see beyond); disturbed segments
// complete fewer operations, so they are the ones that drop out. It returns
// the value and the number of segments that contributed. When no segment
// qualifies (a smoke window, or operations too slow for seg) the value is the
// pooled statistic and the count 0: a series that thin has no quiet-segment
// tail to report, and callers with such operations take medians only.
func quiet(s []sample, window, seg time.Duration, p float64) (float64, int) {
	need := int(math.Ceil(beyond / (1 - p)))
	per := segmentStats(s, int64(seg), int(window/seg), p, need)
	if len(per) == 0 {
		return percentile(sortedCopy(durations(s)), p), 0
	}
	return slices.Min(per), len(per)
}

// relDiff is |b-a| as a share of |a|.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a)
}
