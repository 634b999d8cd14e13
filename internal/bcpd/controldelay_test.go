package bcpd

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
)

// TestControlDelayUnderSaturatedData validates §5.2 at the packet level:
// because the RCC rides the control class of the priority scheduler, the
// per-hop control delay stays bounded even when real-time data saturates
// the link — a failure report crossing a busy corridor still arrives within
// the analytic per-hop bound, so recovery stays fast under load.
func TestControlDelayUnderSaturatedData(t *testing.T) {
	// A 4-node line with a slow middle link carrying heavy data traffic.
	g := topology.NewLine(4, 10) // 10 Mbps links
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 8, SlackHops: 2}

	// The observed connection: primary along the line. No disjoint backup
	// exists on a line, so failure recovery is not the point here — we
	// measure failure-REPORT latency from the far end to the source.
	conn := establish(t, mgr, spec, path(t, g, 0, 1, 2, 3), nil)
	cfg := DefaultConfig()
	cfg.DataMsgSize = 1250 // 1 ms of transmission per hop at 10 Mbps
	net := newChecked(t, eng, NewSimTransport(), mgr, cfg, cfg.Conformance(g.Link(0).Capacity))
	// Saturate the line: 8 Mbps of the 10 Mbps capacity.
	startTraffic(t, net, 800, conn)

	// Crash the last link; the upstream detector (node 2) reports toward
	// the source over two RCC hops that compete with the data flood.
	failAt := sim.Time(200 * time.Millisecond)
	eng.At(failAt, func() { net.FailLink(g.LinkBetween(2, 3)) })

	var reportedAt sim.Time
	srcDaemon := net.nodes[0]
	poll := func() {
		if reportedAt == 0 && srcDaemon.State(conn.Primary.ID) == stateU {
			reportedAt = eng.Now()
		}
	}
	for i := 1; i < 200; i++ {
		eng.Schedule(sim.Duration(i)*sim.Duration(200*time.Microsecond)+sim.Duration(200*time.Millisecond), poll)
	}
	eng.RunFor(time.Second)

	if reportedAt == 0 {
		t.Fatal("failure report never reached the source")
	}
	delay := reportedAt.Sub(failAt)
	// Analytic bound: detection window + 2 hops of D^RCC_max.
	bound := cfg.DetectionWindow() + 2*cfg.HopBound(g.Link(0).Capacity) + 200*time.Microsecond // + polling granularity
	if time.Duration(delay) > bound {
		t.Fatalf("control delay %v exceeds bound %v under saturated data", time.Duration(delay), bound)
	}
	// Sanity: the link really was busy.
	if net.Stats().DataDelivered == 0 {
		t.Fatal("no data flowed")
	}
}
