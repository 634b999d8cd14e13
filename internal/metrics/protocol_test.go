package metrics

import (
	"strings"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 1, 1} // <=1, <=10, <=100, overflow
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d: got %d, want %d (counts %v)", i, c, want[i], h.Counts)
		}
	}
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	if got := h.Mean(); got != (0.5+1+5+50+500)/5 {
		t.Fatalf("mean = %g", got)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("median bucket bound = %g, want 10", q)
	}
}

func TestProtocolAggregatorCountsAndHistograms(t *testing.T) {
	a := NewProtocolAggregator()
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	stream := []trace.Event{
		{At: 0, Kind: trace.KindClaim, Node: topology.NoNode, Link: 1, Channel: 1},
		{At: 0, Kind: trace.KindClaim, Node: topology.NoNode, Link: 2, Channel: 1},
		{At: 0, Kind: trace.KindRCCFrame, Node: 0, Link: 1, Aux: 3},
		{At: 0, Kind: trace.KindRCCRetransmit, Node: 0, Link: 1, Aux: 1},
		{At: 0, Kind: trace.KindMuxFailure, Node: 4, Link: topology.NoLink, Channel: 2},
		{At: ms(100), Kind: trace.KindLinkDown, Node: topology.NoNode, Link: 9},
		{At: ms(103), Kind: trace.KindSourceSwitch, Node: 0, Link: topology.NoLink, Conn: 1, Channel: 2},
	}
	for _, ev := range stream {
		a.Emit(ev)
	}
	for k, want := range map[trace.Kind]uint64{
		trace.KindClaim: 2, trace.KindRCCRetransmit: 1, trace.KindMuxFailure: 1, trace.KindSourceSwitch: 1,
	} {
		if got := a.Count(k); got != want {
			t.Fatalf("%v count = %d, want %d", k, got, want)
		}
	}
	if a.Batch.N != 1 || a.Batch.Sum != 3 {
		t.Fatalf("batch histogram: N=%d sum=%g", a.Batch.N, a.Batch.Sum)
	}
	out := a.Render()
	for _, frag := range []string{"claim", "rcc-retransmit", "source-switch", "rcc batching"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}
