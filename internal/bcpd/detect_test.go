package bcpd

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

func heartbeatConfig() Config {
	cfg := DefaultConfig()
	cfg.HeartbeatInterval = sim.Duration(5 * time.Millisecond)
	return cfg
}

func TestHeartbeatNoFalsePositives(t *testing.T) {
	tb := newTestbed(t, heartbeatConfig())
	if err := tb.net.StartTraffic(tb.conn.ID, 2000); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunFor(2 * time.Second)
	if got := tb.net.Stats().Detections; got != 0 {
		t.Fatalf("%d false detections on a healthy network under load", got)
	}
	if tb.net.Stats().ReportsGenerated != 0 {
		t.Fatal("failure reports without failures")
	}
}

func TestHeartbeatDetectsLinkFailure(t *testing.T) {
	tb := newTestbed(t, heartbeatConfig())
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	failAt := sim.Time(100 * time.Millisecond)
	tb.eng.At(failAt, func() { tb.net.FailLink(tb.g.LinkBetween(1, 2)) })
	tb.eng.RunFor(2 * time.Second)

	if tb.net.Stats().Detections == 0 {
		t.Fatal("heartbeat detection never fired")
	}
	// Recovery happened end to end through organic detection.
	switches := tb.net.SourceSwitches(tb.conn.ID)
	if len(switches) != 1 {
		t.Fatalf("switches = %v", switches)
	}
	// Detection latency ≈ (miss+1)·interval = 20 ms; recovery shortly after.
	delay := switches[0].Sub(failAt)
	if delay < 15*time.Millisecond || delay > 60*time.Millisecond {
		t.Fatalf("recovery delay %v outside the heartbeat-detection window", delay)
	}
	if tb.conn.Primary == nil || tb.conn.Primary.Path.Hops() != 4 {
		t.Fatal("backup not promoted")
	}
}

func TestHeartbeatDetectsNodeFailure(t *testing.T) {
	tb := newTestbed(t, heartbeatConfig())
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	tb.eng.At(sim.Time(100*time.Millisecond), func() { tb.net.FailNode(1) })
	tb.eng.RunFor(2 * time.Second)
	// Node 1 has several incident links; every one with live monitors fires.
	if tb.net.Stats().Detections < 2 {
		t.Fatalf("detections = %d, want at least the incident links with channels", tb.net.Stats().Detections)
	}
	if got := len(tb.net.SourceSwitches(tb.conn.ID)); got != 1 {
		t.Fatalf("switches = %d", got)
	}
	if tb.conn.Primary == nil || tb.conn.Primary.Path.ContainsNode(1) {
		t.Fatal("recovered primary still crosses the dead node")
	}
}

func TestHeartbeatUpstreamNotification(t *testing.T) {
	// Scheme 2 relies purely on the upstream side: the MsgLinkFailure
	// notification from the downstream detector must reach the upstream
	// node for recovery to happen at all.
	cfg := heartbeatConfig()
	cfg.Scheme = Scheme2
	tb := newTestbed(t, cfg)
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	tb.eng.At(sim.Time(100*time.Millisecond), func() { tb.net.FailLink(tb.g.LinkBetween(1, 2)) })
	tb.eng.RunFor(2 * time.Second)
	if len(tb.net.SourceSwitches(tb.conn.ID)) != 1 {
		t.Fatal("scheme 2 with heartbeat detection did not recover")
	}
}

func TestHeartbeatNotificationLossRecoveredByRCC(t *testing.T) {
	// The upstream notification path is not fire-and-forget: when the
	// reverse link is down too, the downstream detector's MsgLinkFailure
	// sits in the RCC send window and is retransmitted until the link
	// heals. Scheme 2 recovery depends entirely on that notification, so
	// this failure mode exercises the RCC's reliability end to end: crash
	// BOTH directions of the primary's middle link, repair only the
	// reverse direction later, and recovery must still happen — after the
	// repair, driven by a retransmitted frame.
	cfg := heartbeatConfig()
	cfg.Scheme = Scheme2
	rec := &trace.Recorder{}
	cfg.Sink = rec
	p := cfg.Conformance(testbedMbps)
	p.DMax = 0 // recovery waits out a 400 ms outage of the notification's link: loss, no Γ bound
	tb := newTestbedChecked(t, cfg, p)
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	fwd := tb.g.LinkBetween(1, 2)
	rev := tb.g.LinkBetween(2, 1)
	failAt := sim.Time(100 * time.Millisecond)
	repairAt := sim.Time(500 * time.Millisecond)
	tb.eng.At(failAt, func() {
		tb.net.FailLink(fwd)
		tb.net.FailLink(rev)
	})
	tb.eng.At(repairAt, func() { tb.net.RepairLink(rev) })
	tb.eng.RunFor(2 * time.Second)

	switches := tb.net.SourceSwitches(tb.conn.ID)
	if len(switches) != 1 {
		t.Fatalf("switches = %v, want exactly 1", switches)
	}
	if switches[0] < repairAt {
		t.Fatalf("source switched at %v, before the reverse link healed at %v",
			time.Duration(switches[0]), time.Duration(repairAt))
	}
	// The notification got through because the RCC kept retransmitting it
	// across the outage, not because anyone resent it at the protocol layer.
	retx := 0
	for _, ev := range rec.Events {
		if ev.Kind == trace.KindRCCRetransmit && ev.Link == rev {
			retx++
		}
	}
	if retx == 0 {
		t.Fatal("no RCC retransmissions on the downed reverse link")
	}
}

func TestHeartbeatRepairSilencesMonitor(t *testing.T) {
	tb := newTestbed(t, heartbeatConfig())
	l := tb.g.LinkBetween(3, 4) // backup link: failure is bookkept, no switch
	tb.eng.At(sim.Time(100*time.Millisecond), func() { tb.net.FailLink(l) })
	tb.eng.At(sim.Time(200*time.Millisecond), func() { tb.net.RepairLink(l) })
	tb.eng.RunFor(2 * time.Second)
	st := tb.net.Stats()
	if st.Detections != 1 {
		t.Fatalf("detections = %d, want exactly 1 (no re-detection after repair)", st.Detections)
	}
	// The repaired channel rejoined as a backup.
	if st.Rejoins == 0 {
		t.Fatal("repaired backup did not rejoin")
	}
}

func TestHeartbeatDisabledKeepsOracle(t *testing.T) {
	tb := newTestbed(t, DefaultConfig()) // no heartbeats
	var l topology.LinkID
	tb.eng.At(sim.Time(50*time.Millisecond), func() {
		l = tb.g.LinkBetween(1, 2)
		tb.net.FailLink(l)
	})
	tb.eng.RunFor(time.Second)
	if tb.net.Stats().Detections != 0 {
		t.Fatal("heartbeat detections while disabled")
	}
	if tb.net.Stats().ReportsGenerated == 0 {
		t.Fatal("oracle detection did not report")
	}
}
