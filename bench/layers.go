package main

// perLayer lists the metrics of the traced pass; layer = package name. A
// workload that does not exercise a layer prints 0 for it. README.md holds
// the table of which end-to-end metric each one should move, on which
// workload. The bcpd.gamma_* / bcpd.disruption_* family is the paper's own
// end-to-end pair (crash -> source switch, crash -> data at the destination)
// as the traced network shows it; the untraced pass prints the same six under
// their bare names (see specific in main.go).
var perLayer = []metricDef{
	// routing: replayed alone over the churn loop's pair sequence.
	{name: "routing.shortest_ns", unit: "ns", better: "lower"},
	{name: "routing.disjoint_ns", unit: "ns", better: "lower"},
	{name: "routing.share_of_establish", unit: "ratio", better: "lower"},
	// core: spans around the harness's own calls, plus replayed kernels.
	{name: "core.establish_ns", unit: "ns", better: "lower"},
	{name: "core.establish_p99_ns", unit: "ns", better: "lower"},
	{name: "core.teardown_ns", unit: "ns", better: "lower"},
	{name: "core.write_txn_per_op", unit: "count", better: "lower"},
	{name: "core.trial_ns", unit: "ns", better: "lower"},
	{name: "core.r_fast", unit: "ratio", better: "higher"},
	{name: "core.claim_batch_ns", unit: "ns", better: "lower"},
	{name: "core.replenish_ns", unit: "ns", better: "lower"},
	// rtchan: admission guard, exact.
	{name: "rtchan.spare_fraction", unit: "ratio", better: "lower"},
	{name: "rtchan.network_load", unit: "ratio", better: "lower"},
	// sim: counters around RunFor, and a timer kernel.
	{name: "sim.events_per_crash", unit: "count", better: "lower"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.pending_after_crash", unit: "count", better: "lower"},
	{name: "sim.timer_churn_ns", unit: "ns", better: "lower"},
	// bcpd: protocol counters per crash, the paper's recovery times, and
	// the stage breakdown of the median recovery.
	{name: "bcpd.crash_phase_p50_ms", unit: "ms", better: "lower"},
	{name: "bcpd.repair_phase_p50_ms", unit: "ms", better: "lower"},
	{name: "bcpd.gamma_p50_ms", unit: "ms", better: "lower"},
	{name: "bcpd.gamma_p95_ms", unit: "ms", better: "lower"},
	{name: "bcpd.disruption_p50_ms", unit: "ms", better: "lower"},
	{name: "bcpd.disruption_p95_ms", unit: "ms", better: "lower"},
	{name: "bcpd.restored_ratio", unit: "ratio", better: "higher"},
	{name: "bcpd.msgs_lost_per_source", unit: "count", better: "lower"},
	{name: "bcpd.reports_per_crash", unit: "count", better: "lower"},
	{name: "bcpd.activations_per_crash", unit: "count", better: "lower"},
	{name: "bcpd.activations_met", unit: "count", better: "lower"},
	{name: "bcpd.mux_failures", unit: "count", better: "lower"},
	{name: "bcpd.rejoin_expiries", unit: "count", better: "lower"},
	{name: "bcpd.replenished", unit: "count", better: "higher"},
	{name: "bcpd.data_dropped", unit: "count", better: "lower"},
	{name: "bcpd.span.detect_ms", unit: "ms", better: "lower"},
	{name: "bcpd.span.report_ms", unit: "ms", better: "lower"},
	{name: "bcpd.span.activate_ms", unit: "ms", better: "lower"},
	{name: "bcpd.span.switch_ms", unit: "ms", better: "lower"},
	{name: "bcpd.span.resume_ms", unit: "ms", better: "lower"},
	{name: "bcpd.gamma_bound_ms", unit: "ms", better: "lower"},
	// rcc: events of the traced stream, and an endpoint pair driven alone.
	{name: "rcc.frames_per_crash", unit: "count", better: "lower"},
	{name: "rcc.controls_per_frame", unit: "count", better: "higher"},
	{name: "rcc.retransmits", unit: "count", better: "lower"},
	{name: "rcc.pure_acks", unit: "count", better: "lower"},
	{name: "rcc.ns_per_control_b1", unit: "ns", better: "lower"},
	{name: "rcc.ns_per_control_b16", unit: "ns", better: "lower"},
	// wire: frames of 1 and 16 controls.
	{name: "wire.marshal_ns_1", unit: "ns", better: "lower"},
	{name: "wire.marshal_ns_16", unit: "ns", better: "lower"},
	{name: "wire.unmarshal_ns_16", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_control", unit: "B", better: "lower"},
	// sched: one link fed two classes.
	{name: "sched.ns_per_packet", unit: "ns", better: "lower"},
	{name: "sched.dropped_queue", unit: "count", better: "lower"},
	// realtime: one probe goroutine during the recovery window.
	{name: "realtime.exec_wait_us_p50", unit: "us", better: "lower"},
	{name: "realtime.exec_wait_us_p95", unit: "us", better: "lower"},
	{name: "realtime.mailbox_wait_us_p50", unit: "us", better: "lower"},
	{name: "realtime.mailbox_wait_us_p95", unit: "us", better: "lower"},
	{name: "realtime.timer_late_us_p50", unit: "us", better: "lower"},
	{name: "realtime.timer_late_us_p95", unit: "us", better: "lower"},
	{name: "realtime.dropped", unit: "count", better: "lower"},
	// transport: a wrapper around the live transport.
	{name: "transport.frames_per_trial", unit: "count", better: "lower"},
	{name: "transport.frame_bytes", unit: "B", better: "lower"},
	{name: "transport.data_msgs", unit: "count", better: "higher"},
	{name: "transport.send_frame_ns", unit: "ns", better: "lower"},
	// trace and conformance: the cost of observing, and the oracle.
	{name: "trace.events_per_crash", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "conformance.violations", unit: "count", better: "lower"},
	{name: "conformance.ns_per_event", unit: "ns", better: "lower"},
}
