package metrics

// Protocol-observability aggregation: counters and histograms computed from
// the typed event stream of internal/trace. A ProtocolAggregator is a
// trace.Sink, so it can tee with a recorder or the conformance checker
// during a run, or replay a recorded stream afterwards.

import (
	"fmt"
	"strings"
	"time"

	"github.com/rtcl/bcp/internal/sim"
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

// Reset zeroes all counts, keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Sum, h.N = 0, 0
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

// ProtocolAggregator folds an event stream into per-kind counters, an RCC
// batching histogram (controls per payload frame), and a recovery-delay
// histogram (component crash to source switch).
type ProtocolAggregator struct {
	counts [trace.NumKinds]uint64
	// Batch is the distribution of controls batched per RCC payload frame.
	Batch *Histogram
	// Recovery is the distribution of recovery delays in seconds.
	Recovery *Histogram

	lastCrash sim.Time
	anyCrash  bool
}

// NewProtocolAggregator creates an aggregator with default buckets: batch
// sizes up to the practical per-frame maximum, recovery delays from 100µs
// to 10s.
func NewProtocolAggregator() *ProtocolAggregator {
	return &ProtocolAggregator{
		Batch: NewHistogram(1, 2, 4, 8, 16, 32),
		Recovery: NewHistogram(100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3,
			100e-3, 300e-3, 1, 3, 10),
	}
}

// Emit implements trace.Sink.
func (a *ProtocolAggregator) Emit(ev trace.Event) {
	if int(ev.Kind) < len(a.counts) {
		a.counts[ev.Kind]++
	}
	switch ev.Kind {
	case trace.KindLinkDown, trace.KindNodeDown:
		a.lastCrash, a.anyCrash = ev.At, true
	case trace.KindRCCFrame:
		a.Batch.Observe(float64(ev.Aux))
	case trace.KindSourceSwitch:
		if a.anyCrash {
			a.Recovery.Observe(time.Duration(ev.At.Sub(a.lastCrash)).Seconds())
		}
	}
}

// Reset zeroes every counter and histogram so the aggregator can fold a
// fresh run, keeping all allocations.
func (a *ProtocolAggregator) Reset() {
	for i := range a.counts {
		a.counts[i] = 0
	}
	a.Batch.Reset()
	a.Recovery.Reset()
	a.lastCrash, a.anyCrash = 0, false
}

// Count returns the number of events of kind k.
func (a *ProtocolAggregator) Count(k trace.Kind) uint64 {
	if int(k) >= len(a.counts) {
		return 0
	}
	return a.counts[k]
}

// Retransmissions returns the RCC retransmission count.
func (a *ProtocolAggregator) Retransmissions() uint64 { return a.Count(trace.KindRCCRetransmit) }

// Claims returns the spare-bandwidth claim count.
func (a *ProtocolAggregator) Claims() uint64 { return a.Count(trace.KindClaim) }

// MuxFailures returns the multiplexing-failure count.
func (a *ProtocolAggregator) MuxFailures() uint64 { return a.Count(trace.KindMuxFailure) }

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
	if a.Recovery.N > 0 {
		fmt.Fprintf(&b, "recovery delay: %d recoveries, mean %.3gs, p99 <= %.3gs\n",
			a.Recovery.N, a.Recovery.Mean(), a.Recovery.Quantile(0.99))
	}
	return b.String()
}
