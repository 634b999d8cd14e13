package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// What the two crash workloads share: how a crash is observed from outside,
// and how the observations become the bcpd.*, rcc.* and wire.* metrics.

// perHopBound is D^RCC_max, the worst-case one-hop control delay of the RCC
// model (eligibility wait + residual data transmission + the frame's own
// transmission + propagation), as internal/experiment's Section 5 harness
// computes it.
func perHopBound(cfg bcpd.Config, capacityMbps float64) time.Duration {
	bps := capacityMbps * 1e6
	eligibility := time.Duration(float64(time.Second) / cfg.RCC.RMax)
	residual := time.Duration(float64(cfg.DataMsgSize*8) / bps * float64(time.Second))
	frame := time.Duration(float64(cfg.RCC.SMax*8) / bps * float64(time.Second))
	return eligibility + residual + frame + cfg.PropDelay
}

func crossesNode(p topology.Path, v topology.NodeID) bool {
	for _, n := range p.Nodes() {
		if n == v {
			return true
		}
	}
	return false
}

// firstArrivalAfter binary-searches a connection's ascending arrival times;
// Network.FirstArrivalAfter scans from the start, which is quadratic over a
// window of thousands of crashes on one network.
func firstArrivalAfter(arrivals []sim.Time, t sim.Time) (sim.Time, bool) {
	i := sort.Search(len(arrivals), func(i int) bool { return arrivals[i] >= t })
	if i == len(arrivals) {
		return 0, false
	}
	return arrivals[i], true
}

func subStats(a, b bcpd.Stats) bcpd.Stats {
	return bcpd.Stats{
		Detections:         a.Detections - b.Detections,
		ReportsGenerated:   a.ReportsGenerated - b.ReportsGenerated,
		ActivationsStarted: a.ActivationsStarted - b.ActivationsStarted,
		ActivationsMet:     a.ActivationsMet - b.ActivationsMet,
		MuxFailures:        a.MuxFailures - b.MuxFailures,
		Preemptions:        a.Preemptions - b.Preemptions,
		RejoinRequests:     a.RejoinRequests - b.RejoinRequests,
		Rejoins:            a.Rejoins - b.Rejoins,
		BackupsReplenished: a.BackupsReplenished - b.BackupsReplenished,
		Closures:           a.Closures - b.Closures,
		RejoinExpiries:     a.RejoinExpiries - b.RejoinExpiries,
		DataSent:           a.DataSent - b.DataSent,
		DataDelivered:      a.DataDelivered - b.DataDelivered,
		DataDropped:        a.DataDropped - b.DataDropped,
	}
}

// addStats is a + b, by way of the unsigned wrap-around of a - (0 - b).
func addStats(a, b bcpd.Stats) bcpd.Stats { return subStats(a, subStats(bcpd.Stats{}, b)) }

// crashObs accumulates what one window of crashes (storm cycles or live
// trials) showed from outside.
type crashObs struct {
	n int // completed cycles or trials

	gamma, disruption []float64 // runtime-clock ns per disrupted source
	sourcesDisrupted  int
	sourcesResumed    int
	failedPrimaries   int
	restored          int
	lostMsgs          int64
	// Stats() deltas summed over crash phases and over repair phases.
	crashStats, repairStats bcpd.Stats

	// Traced pass only.
	recoveries     []recovery
	incomplete     int // disrupted sources whose stream lacked a stage event
	crashEvents    int
	rccFrames      int
	rccControls    int64
	rccRetransmits int
	rccAcks        int
	checkNs        int64 // time spent in the conformance checker
	checkedEvents  int
}

// observeCrash consumes the events one crash produced: it counts them and
// the RCC activity among them, derives the stage spans of the disrupted
// sources in arrivals, and records those spans under trace id (id, conn).
func (o *crashObs) observeCrash(events []trace.Event, crashAt sim.Time, arrivals map[rtchan.ConnID]sim.Time, hops func(rtchan.ConnID) int, tr *tracer, id int64) {
	o.crashEvents += len(events)
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindRCCFrame:
			o.rccFrames++
			o.rccControls += ev.Aux
		case trace.KindRCCRetransmit:
			o.rccRetransmits++
		case trace.KindRCCAck:
			o.rccAcks++
		}
	}
	rs, inc := deriveRecoveries(events, crashAt, arrivals)
	o.incomplete += inc
	for i := range rs {
		rs[i].hops = hops(rs[i].conn)
	}
	o.recoveries = append(o.recoveries, rs...)
	if tr == nil {
		return
	}
	for _, r := range rs {
		tid := id<<32 | int64(r.conn)
		parent := tr.add(span{Name: "bcpd.recovery", Trace: tid, Parent: -1,
			Start: int64(r.bound[0]), End: int64(r.bound[numStages]), Clock: clockRuntime})
		for k := 0; k < numStages; k++ {
			tr.add(span{Name: "bcpd.span." + stageNames[k], Trace: tid, Parent: parent,
				Start: int64(r.bound[k]), End: int64(r.bound[k+1]), Clock: clockRuntime})
		}
	}
}

func (o *crashObs) restoredRatio() float64 {
	return float64(o.restored) / float64(max(o.failedPrimaries, 1))
}

func (o *crashObs) lostPerSource() float64 {
	return float64(o.lostMsgs) / float64(max(o.sourcesDisrupted, 1))
}

// putRecovery reports what a disrupted source's user sees: the paper's pair
// (gamma and disruption), how many failed primaries were re-routed, and the
// loss across the switchover. The untraced pass prints them bare, the traced
// pass under the bcpd layer. The per-hop bound and the send period are printed
// beside them: gamma is bounded by (K-1)*D^RCC_max, and the gap from gamma to
// disruption is mostly the wait for the source's next send.
func (o *crashObs) putRecovery(rep *report, prefix, clock string, dmax, sendPeriod time.Duration) {
	g, d := pool(o.gamma), pool(o.disruption)
	rep.put(prefix+"gamma_p50_ms", "ms", g.median/1e6, g.n, fmt.Sprintf("crash -> source switch; %s; D^RCC_max %v", clock, dmax))
	rep.put(prefix+"gamma_p95_ms", "ms", g.p95/1e6, g.n, clock)
	rep.put(prefix+"disruption_p50_ms", "ms", d.median/1e6, d.n, fmt.Sprintf("crash -> first data at the destination after the switch; %s; data send period %v", clock, sendPeriod))
	rep.put(prefix+"disruption_p95_ms", "ms", d.p95/1e6, d.n, clock)
	rep.put(prefix+"restored_ratio", "ratio", o.restoredRatio(), o.failedPrimaries, "primaries re-routed off the victim / primaries failed")
	rep.put(prefix+"msgs_lost_per_source", "count", o.lostPerSource(), o.sourcesDisrupted, "data sent - delivered across the switchover, per disrupted source")
}

// putLayerMetrics reports everything the traced pass learns about the
// protocol layers from one window of crashes: the recovery as the user sees
// it, the stage breakdown of the median recovery, the Stats() counters and
// the RCC events. per is "crash phase" or "trial".
func (o *crashObs) putLayerMetrics(rep *report, dmax, sendPeriod time.Duration, clock, per string) {
	n := float64(max(o.n, 1))
	o.putRecovery(rep, "bcpd.", clock, dmax, sendPeriod)

	stages, ns := medianRecoveryStages(o.recoveries)
	var sum float64
	for k := 0; k < numStages; k++ {
		rep.put("bcpd.span."+stageNames[k]+"_ms", "ms", stages[k]/1e6, ns, "mean over the recoveries between p40 and p60 of disruption")
		sum += stages[k]
	}
	h := make([]float64, 0, len(o.recoveries))
	for _, r := range o.recoveries {
		h = append(h, float64(r.hops))
	}
	hops := 1
	if len(h) > 0 {
		hops = int(percentile(sortedCopy(h), 0.5) + 0.5)
	}
	rep.put("bcpd.gamma_bound_ms", "ms", float64(hops-1)*float64(dmax)/1e6, len(o.recoveries),
		fmt.Sprintf("(K-1)*D^RCC_max for the median recovered path, K=%d, D^RCC_max=%v; stages sum to %.3f ms; %d recoveries lacked a stage event", hops, dmax, sum/1e6, o.incomplete))

	cs, rs := o.crashStats, o.repairStats
	rep.put("bcpd.reports_per_crash", "count", float64(cs.ReportsGenerated)/n, o.n, "Stats().ReportsGenerated delta per "+per)
	rep.put("bcpd.activations_per_crash", "count", float64(cs.ActivationsStarted)/n, o.n, "ActivationsStarted delta per "+per)
	rep.put("bcpd.activations_met", "count", float64(cs.ActivationsMet)/n, o.n, "scheme-3 activations discarded at an activated node, per "+per)
	rep.put("bcpd.mux_failures", "count", float64(cs.MuxFailures+rs.MuxFailures)/n, o.n, "per cycle")
	rep.put("bcpd.rejoin_expiries", "count", float64(cs.RejoinExpiries+rs.RejoinExpiries)/n, o.n, "per cycle")
	rep.put("bcpd.replenished", "count", float64(cs.BackupsReplenished+rs.BackupsReplenished)/n, o.n, "per cycle")
	rep.put("bcpd.data_dropped", "count", float64(cs.DataDropped)/n, o.n, "DataDropped delta per "+per)

	rep.put("trace.events_per_crash", "count", float64(o.crashEvents)/n, o.n, "events recorded per "+per)
	rep.put("rcc.frames_per_crash", "count", float64(o.rccFrames)/n, o.n, "RCCFrame events per "+per)
	rep.put("rcc.controls_per_frame", "count", float64(o.rccControls)/float64(max(o.rccFrames, 1)), o.rccFrames, "batched controls per payload frame")
	rep.put("rcc.retransmits", "count", float64(o.rccRetransmits)/n, o.n, "RCCRetransmit events per "+per)
	rep.put("rcc.pure_acks", "count", float64(o.rccAcks)/n, o.n, "RCCAck events per "+per)
	rep.put("conformance.ns_per_event", "ns", float64(o.checkNs)/float64(max(o.checkedEvents, 1)), o.checkedEvents, "conformance checker cost over the traced stream")
}

// putProtocolKernels reports the rcc and wire kernels both crash workloads
// share.
func putProtocolKernels(rep *report, cfg runConfig, tr *tracer) {
	b1, b16 := kernelRCC(1, cfg.iters(2000), tr), kernelRCC(16, cfg.iters(2000), tr)
	if b1 < 0 || b16 < 0 {
		rep.failCheck("rcc kernel lost controls")
	}
	rep.put("rcc.ns_per_control_b1", "ns", b1, kernelBatches, "endpoint pair, one control per frame")
	rep.put("rcc.ns_per_control_b16", "ns", b16, kernelBatches, "endpoint pair, SubmitBatch of 16 controls per frame")
	m1, _, _ := kernelWire(1, cfg.iters(100000), tr)
	m16, u16, bpc := kernelWire(16, cfg.iters(100000), tr)
	if u16 < 0 {
		rep.failCheck("wire kernel failed to decode its own frame")
	}
	rep.put("wire.marshal_ns_1", "ns", m1, kernelBatches, "MarshalAppend, 1 control")
	rep.put("wire.marshal_ns_16", "ns", m16, kernelBatches, "MarshalAppend, 16 controls")
	rep.put("wire.unmarshal_ns_16", "ns", u16, kernelBatches, "UnmarshalScratch, 16 controls")
	rep.put("wire.bytes_per_control", "B", bpc, 1, "16-control frame size / 16, exact")
}
