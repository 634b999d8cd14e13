package metrics

// Protocol-observability aggregation: counters and histograms computed from
// the typed event stream of internal/trace. A ProtocolAggregator is a
// trace.Sink, so it can tee with a recorder or the conformance checker
// during a run, or replay a recorded stream afterwards.

import (
	"fmt"
	"strings"

	"github.com/rtcl/bcp/internal/trace"
)

// Histogram counts observations into fixed buckets: Counts[i] holds
// observations v <= Bounds[i] (and above all smaller bounds); the last
// bucket is unbounded.
type Histogram struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	N      uint64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Sum += v
	h.N++
}

// Mean returns the average observation (0 for none).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (q in [0,1]); the last bucket reports the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h.N == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := q * float64(h.N)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// ProtocolAggregator folds an event stream into per-kind counters and an RCC
// batching histogram (controls per payload frame). Recovery delays are
// trace.Recoveries' to derive.
type ProtocolAggregator struct {
	counts [trace.NumKinds]uint64
	// Batch is the distribution of controls batched per RCC payload frame.
	Batch *Histogram
}

// NewProtocolAggregator creates an aggregator whose batch buckets reach the
// practical per-frame maximum.
func NewProtocolAggregator() *ProtocolAggregator {
	return &ProtocolAggregator{Batch: NewHistogram(1, 2, 4, 8, 16, 32)}
}

// Emit implements trace.Sink.
func (a *ProtocolAggregator) Emit(ev trace.Event) {
	if int(ev.Kind) < len(a.counts) {
		a.counts[ev.Kind]++
	}
	if ev.Kind == trace.KindRCCFrame {
		a.Batch.Observe(float64(ev.Aux))
	}
}

// Count returns the number of events of kind k.
func (a *ProtocolAggregator) Count(k trace.Kind) uint64 {
	if int(k) >= len(a.counts) {
		return 0
	}
	return a.counts[k]
}

// Render prints the non-zero counters and histogram summaries.
func (a *ProtocolAggregator) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol events:\n")
	for k := trace.Kind(1); int(k) < trace.NumKinds; k++ {
		if a.counts[k] > 0 {
			fmt.Fprintf(&b, "  %-18s %d\n", k.String(), a.counts[k])
		}
	}
	if a.Batch.N > 0 {
		fmt.Fprintf(&b, "rcc batching: %d frames, mean %.2f controls/frame, p99 <= %.0f\n",
			a.Batch.N, a.Batch.Mean(), a.Batch.Quantile(0.99))
	}
	return b.String()
}
