package bcpd

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/wire"
)

// newChaosTestbed is newTestbed with a ChaosTransport wrapped around the
// simulated links.
func newChaosTestbed(t *testing.T, cfg Config, p ChaosParams) (*testbed, *ChaosTransport) {
	t.Helper()
	g := topology.NewMesh(3, 3, 10)
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	conn, err := mgr.EstablishOnPaths(spec,
		path(t, g, 0, 1, 2),
		[]topology.Path{path(t, g, 0, 3, 4, 5, 2)},
		[]int{1})
	if err != nil {
		t.Fatal(err)
	}
	attachConformance(t, &cfg, cfg.Conformance(g.Link(0).Capacity))
	ct := NewChaosTransport(NewSimTransport(), p)
	net := NewOn(eng, ct, mgr, cfg)
	return &testbed{g: g, eng: eng, mgr: mgr, net: net, conn: conn}, ct
}

// auditPool drains the engine and verifies the pooled-buffer census: every
// frame and data box checked out of the network's pools is back, and the
// transport holds nothing.
func auditPool(t *testing.T, tb *testbed, ct *ChaosTransport) {
	t.Helper()
	deadline := tb.eng.Now().Add(sim.Duration(10 * time.Second))
	for tb.eng.Pending() > 0 && tb.eng.Now() < deadline {
		tb.eng.Step()
	}
	frames, data := tb.net.PoolOutstanding()
	inFrames, inData := ct.InTransit()
	if frames != inFrames || data != inData {
		t.Fatalf("pool census mismatch: pool has %d frames/%d data outstanding, transport holds %d/%d",
			frames, data, inFrames, inData)
	}
	if frames != 0 || data != 0 {
		t.Fatalf("pooled buffers leaked at quiescence: %d frames, %d data", frames, data)
	}
}

// TestChaosDuplicateDoesNotAliasPool is the regression demanded by the
// chaos work: a duplicated frame must be a fresh pooled copy, never a second
// reference to the same buffer. An aliasing duplicate would be Put twice —
// driving the pool census negative — or corrupt a recycled buffer in
// flight. Dup=1 doubles every frame through a full recovery cycle.
func TestChaosDuplicateDoesNotAliasPool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(time.Second)
	tb, ct := newChaosTestbed(t, cfg, ChaosParams{
		Seed:    7,
		Default: LinkChaos{Dup: 1.0},
	})
	tb.net.FailLink(tb.conn.Primary.Path.Links()[0])
	tb.eng.RunFor(sim.Duration(200 * time.Millisecond))
	tb.net.RepairLink(tb.conn.Primary.Path.Links()[0])
	auditPool(t, tb, ct)
	if ct.Stats().FramesDuplicated == 0 {
		t.Fatal("duplication plan never fired")
	}
}

// TestChaosDropReclaimsFrames: with Drop=1 nothing is ever delivered, so
// every pooled buffer must come back through the transport's drop path.
// Chaos is then lifted so the stalled recovery can finish — an eternal
// blackout would legitimately leave activation claims outstanding.
func TestChaosDropReclaimsFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(time.Second)
	tb, ct := newChaosTestbed(t, cfg, ChaosParams{
		Seed:    7,
		Default: LinkChaos{Drop: 1.0},
	})
	l := tb.conn.Primary.Path.Links()[0]
	tb.net.FailLink(l)
	tb.eng.RunFor(sim.Duration(100 * time.Millisecond))
	frames, data := tb.net.PoolOutstanding()
	inF, inD := ct.InTransit()
	if frames != inF || data != inD {
		t.Fatalf("census mismatch under total loss: pool %d/%d vs transport %d/%d", frames, data, inF, inD)
	}
	if ct.Stats().FramesDropped == 0 {
		t.Fatal("drop plan never fired")
	}
	for i := 0; i < tb.g.NumLinks(); i++ {
		ct.SetLinkChaos(topology.LinkID(i), LinkChaos{})
	}
	tb.net.RepairLink(l)
	auditPool(t, tb, ct)
}

// TestChaosPartitionIsAsymmetric: cutting one direction of a link must drop
// that direction only, keep the pool balanced, and stay invisible to the
// protocol's component-failure oracle.
func TestChaosPartitionIsAsymmetric(t *testing.T) {
	cfg := DefaultConfig()
	tb, ct := newChaosTestbed(t, cfg, ChaosParams{Seed: 7})
	// Cut the direction node 1 -> node 0: the failure report about the
	// primary's second link must cross it to reach the source. The forward
	// direction stays open, the protocol sees a healthy link (failures are
	// detected, cuts are not), and RCC retransmission rides out the cut.
	fwd := tb.conn.Primary.Path.Links()[0]
	cut := tb.g.Reverse(fwd)
	ct.SetPartition(cut, true)
	if !ct.Partitioned(cut) {
		t.Fatal("partition not recorded")
	}
	if ct.Partitioned(fwd) {
		t.Fatal("cutting one direction cut the reverse too")
	}
	broken := tb.conn.Primary.Path.Links()[1]
	tb.net.FailLink(broken)
	tb.eng.RunFor(sim.Duration(300 * time.Millisecond))
	if got := ct.Stats().PartitionDropped; got == 0 {
		t.Fatal("nothing crossed the cut")
	}
	tb.net.RepairLink(broken)
	ct.HealAllPartitions()
	if ct.Partitioned(cut) {
		t.Fatal("HealAllPartitions left a cut in place")
	}
	auditPool(t, tb, ct)
}

// TestChaosCorruptionNeverDecodable: the wire format has no checksum, so
// the chaos layer models a link-layer FCS — a mangled frame is delivered
// only if it no longer decodes (the receive path discards it); a mutant
// that still decodes is dropped instead of delivered, since a forged
// control message would break the protocol in ways no real link does. The
// tap sees both kinds (fuzz seeding wants the decodable ones too), so the
// split must match the delivered/dropped counters exactly.
func TestChaosCorruptionNeverDecodable(t *testing.T) {
	decodable := 0
	tapped := 0
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(time.Second)
	tb, ct := newChaosTestbed(t, cfg, ChaosParams{
		Seed:    7,
		Default: LinkChaos{Corrupt: 1.0},
		CorruptTap: func(_ topology.LinkID, frame []byte) {
			tapped++
			if _, err := wire.Unmarshal(frame); err == nil {
				decodable++
			}
		},
	})
	l := tb.conn.Primary.Path.Links()[0]
	tb.net.FailLink(l)
	tb.eng.RunFor(sim.Duration(100 * time.Millisecond))
	if tapped == 0 {
		t.Fatal("corruption plan never fired")
	}
	st := ct.Stats()
	if uint64(decodable) != st.FramesCorruptDrop {
		t.Fatalf("%d mutants decodable but %d dropped as decodable", decodable, st.FramesCorruptDrop)
	}
	if uint64(tapped) != st.FramesCorrupted+st.FramesCorruptDrop {
		t.Fatalf("tap saw %d frames, counters account for %d", tapped, st.FramesCorrupted+st.FramesCorruptDrop)
	}
	for i := 0; i < tb.g.NumLinks(); i++ {
		ct.SetLinkChaos(topology.LinkID(i), LinkChaos{})
	}
	tb.net.RepairLink(l)
	auditPool(t, tb, ct)
}

// TestChaosDelayPreservesDelivery: pure jitter (no loss) must not lose or
// leak any pooled buffer, and recovery must still complete.
func TestChaosDelayPreservesDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(time.Second)
	tb, ct := newChaosTestbed(t, cfg, ChaosParams{
		Seed:    7,
		Default: LinkChaos{Delay: 1.0, DelayMax: sim.Duration(3 * time.Millisecond)},
	})
	l := tb.conn.Primary.Path.Links()[0]
	tb.net.FailLink(l)
	tb.eng.RunFor(sim.Duration(200 * time.Millisecond))
	tb.net.RepairLink(l)
	auditPool(t, tb, ct)
	if ct.Stats().Delayed == 0 {
		t.Fatal("delay plan never fired")
	}
	if tb.conn.Primary == nil {
		t.Fatal("connection lost its primary under pure jitter")
	}
	if viol := tb.net.CheckQuiescence(); len(viol) != 0 {
		t.Fatalf("quiescence audit: %v", viol)
	}
}
