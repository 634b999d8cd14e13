package bcpd

import (
	"math/rand"

	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/wire"
)

// LinkChaos is the per-simplex-link fault plan of a ChaosTransport: every
// probability is evaluated independently per packet, from the transport's own
// seeded random source, so a given (seed, traffic) pair always makes the same
// decisions.
//
// Corruption models a link-layer frame check: corrupted control frames are
// only delivered when the flipped bytes still fail to decode (the receive
// path drops them there, and hop-by-hop retransmission recovers); a flip that
// accidentally produces a *decodable* frame is dropped instead, exactly as a
// CRC would discard it. Either way the mangled bytes are handed to the
// CorruptTap, which is how chaos episodes double as a fuzz-corpus generator.
type LinkChaos struct {
	// Drop is the probability a packet is silently lost.
	Drop float64
	// Dup is the probability a packet is delivered twice. The duplicate is
	// a deep copy in its own pooled buffer/box — duplicating must never
	// alias pooled memory, or the receiver's Put would double-free it.
	Dup float64
	// Corrupt is the probability a control frame's bytes are flipped (see
	// above; data and heartbeat packets are never corrupted).
	Corrupt float64
	// Delay is the probability a packet is held for a uniform extra delay
	// in (0, DelayMax] before entering the real transmitter. Because holds
	// are independent per packet, delayed packets reorder against
	// undelayed ones.
	Delay float64
	// DelayMax bounds the extra hold; zero disables delay entirely.
	DelayMax sim.Duration
}

// ChaosParams configures a ChaosTransport.
type ChaosParams struct {
	// Seed drives every adversarial decision; same seed, same chaos.
	Seed int64
	// Default is every link's plan until SetLinkChaos replaces it.
	Default LinkChaos
	// CorruptTap, when non-nil, observes every corrupted frame image (after
	// the byte flips, before the deliver-or-drop decision). The buffer is
	// pooled — the tap must copy anything it retains.
	CorruptTap func(l topology.LinkID, frame []byte)
}

// ChaosStats counts the adversarial actions a ChaosTransport took.
type ChaosStats struct {
	FramesDropped     uint64
	FramesDuplicated  uint64
	FramesCorrupted   uint64 // corrupted and still delivered (undecodable)
	FramesCorruptDrop uint64 // corruption accidentally decodable: dropped
	DataDropped       uint64
	DataDuplicated    uint64
	HeartbeatsDropped uint64
	Delayed           uint64
	PartitionDropped  uint64
}

// ChaosTransport decorates another Transport with seed-driven packet-level
// hostility: loss, duplication, reordering (via bounded extra delay),
// control-frame corruption, and asymmetric partitions. It honors the pooled
// buffer ownership contract exactly: every packet it swallows is reclaimed
// through the network's drop paths, and every duplicate it fabricates checks
// a fresh buffer/box out of the pool, so the pool-balance census
// (PoolOutstanding == InTransit) keeps holding under any plan.
//
// It is deterministic on a sim runtime: decisions come from its own seeded
// RNG and holds are ordinary runtime timers.
type ChaosTransport struct {
	inner Transport
	n     *Network
	p     ChaosParams
	rng   *rand.Rand
	plans []LinkChaos

	// cut[l] drops everything traversing link l at the chaos layer while
	// the link officially stays up — an asymmetric partition (the reverse
	// direction is cut independently).
	cut []bool

	// Packets held in a delay timer are owned by the chaos layer: the
	// census counts them as in transit.
	heldFrames int
	heldData   int

	stats ChaosStats
}

// NewChaosTransport wraps inner (usually a SimTransport; any Transport whose
// sends are runtime-serialized works) with the given fault plans.
func NewChaosTransport(inner Transport, p ChaosParams) *ChaosTransport {
	return &ChaosTransport{inner: inner, p: p}
}

// Stats returns a snapshot of the chaos counters.
func (t *ChaosTransport) Stats() ChaosStats { return t.stats }

// Attach implements Transport.
func (t *ChaosTransport) Attach(n *Network) {
	t.n = n
	t.rng = rand.New(rand.NewSource(t.p.Seed))
	nl := n.mgr.Graph().NumLinks()
	t.plans = make([]LinkChaos, nl)
	t.cut = make([]bool, nl)
	for i := range t.plans {
		t.plans[i] = t.p.Default
	}
	t.inner.Attach(n)
}

// SetPartition cuts or heals the chaos-layer partition on simplex link l.
// While cut, everything submitted to l is swallowed (and reclaimed); the
// protocol plane keeps believing the link is up, so RCC retransmission — not
// failure recovery — is what must carry the traffic across the heal.
func (t *ChaosTransport) SetPartition(l topology.LinkID, cut bool) { t.cut[l] = cut }

// Partitioned reports whether link l is currently cut at the chaos layer.
func (t *ChaosTransport) Partitioned(l topology.LinkID) bool { return t.cut[l] }

// HealAllPartitions clears every chaos-layer cut.
func (t *ChaosTransport) HealAllPartitions() {
	for i := range t.cut {
		t.cut[i] = false
	}
}

// SetLinkChaos replaces link l's plan.
func (t *ChaosTransport) SetLinkChaos(l topology.LinkID, plan LinkChaos) { t.plans[l] = plan }

// roll evaluates one probability.
func (t *ChaosTransport) roll(p float64) bool {
	return p > 0 && t.rng.Float64() < p
}

// hold returns the extra delay for a packet on plan, or 0.
func (t *ChaosTransport) hold(plan *LinkChaos) sim.Duration {
	if plan.DelayMax <= 0 || !t.roll(plan.Delay) {
		return 0
	}
	return sim.Duration(1 + t.rng.Int63n(int64(plan.DelayMax)))
}

// SendFrame implements Transport: the frame buffer is pooled; every path
// below either forwards it to the inner transport or reclaims it.
func (t *ChaosTransport) SendFrame(l topology.LinkID, frame []byte) {
	if t.cut[l] {
		t.stats.PartitionDropped++
		t.n.reclaimFrame(frame)
		return
	}
	plan := &t.plans[l]
	if t.roll(plan.Drop) {
		t.stats.FramesDropped++
		t.n.reclaimFrame(frame)
		return
	}
	if t.roll(plan.Dup) {
		// The duplicate gets its own pooled buffer: the original and the
		// copy are independently delivered, and independently Put back.
		dup := append(t.n.framePool.Get(len(frame)), frame...)
		t.stats.FramesDuplicated++
		t.forwardFrame(l, dup, plan)
	}
	if t.roll(plan.Corrupt) {
		if !t.corruptFrame(l, frame) {
			// The flips produced a decodable frame: the link-layer check
			// model discards it rather than deliver a forged control.
			t.stats.FramesCorruptDrop++
			t.n.reclaimFrame(frame)
			return
		}
		t.stats.FramesCorrupted++
	}
	t.forwardFrame(l, frame, plan)
}

// forwardFrame hands a frame to the inner transport, possibly after a
// chaos-layer hold. A held frame whose link fails before the hold expires is
// still submitted — the inner transport's down-link drop path reclaims it.
func (t *ChaosTransport) forwardFrame(l topology.LinkID, frame []byte, plan *LinkChaos) {
	if d := t.hold(plan); d > 0 {
		t.stats.Delayed++
		t.heldFrames++
		t.n.rt.Schedule(d, func() {
			t.heldFrames--
			t.inner.SendFrame(l, frame)
		})
		return
	}
	t.inner.SendFrame(l, frame)
}

// corruptFrame flips 1-3 bytes in place and reports whether the result is
// safe to deliver (i.e. fails to decode, so the receive path drops it and
// retransmission recovers). It retries the flips a few times before giving
// up on making the frame undecodable. The mangled image is handed to the
// CorruptTap either way.
func (t *ChaosTransport) corruptFrame(l topology.LinkID, frame []byte) (deliverable bool) {
	if len(frame) == 0 {
		return false
	}
	undecodable := false
	for attempt := 0; attempt < 4 && !undecodable; attempt++ {
		for i, k := 0, 1+t.rng.Intn(3); i < k; i++ {
			pos := t.rng.Intn(len(frame))
			frame[pos] ^= byte(1 + t.rng.Intn(255))
		}
		if _, err := wire.Unmarshal(frame); err != nil {
			undecodable = true
		}
	}
	if tap := t.p.CorruptTap; tap != nil {
		tap(l, frame)
	}
	return undecodable
}

// SendData implements Transport; the payload box is pooled, with the same
// forward-or-reclaim obligation as frames. Data is never corrupted (the
// payload is structural, not bytes), but is dropped, duplicated, and delayed.
func (t *ChaosTransport) SendData(l topology.LinkID, p *dataPayload) {
	if t.cut[l] {
		t.stats.PartitionDropped++
		t.n.reclaimData(p)
		return
	}
	plan := &t.plans[l]
	if t.roll(plan.Drop) {
		t.stats.DataDropped++
		t.n.reclaimData(p)
		return
	}
	if t.roll(plan.Dup) {
		dup := t.n.getDataBox()
		*dup = *p
		t.stats.DataDuplicated++
		t.forwardData(l, dup, plan)
	}
	t.forwardData(l, p, plan)
}

func (t *ChaosTransport) forwardData(l topology.LinkID, p *dataPayload, plan *LinkChaos) {
	if d := t.hold(plan); d > 0 {
		t.stats.Delayed++
		t.heldData++
		t.n.rt.Schedule(d, func() {
			t.heldData--
			t.inner.SendData(l, p)
		})
		return
	}
	t.inner.SendData(l, p)
}

// SendHeartbeat implements Transport. Heartbeats carry nothing pooled, so a
// swallowed one needs no reclamation; dropping enough of them in a row is
// how chaos provokes false-positive failure detection.
func (t *ChaosTransport) SendHeartbeat(l topology.LinkID) {
	if t.cut[l] {
		t.stats.PartitionDropped++
		return
	}
	plan := &t.plans[l]
	if t.roll(plan.Drop) {
		t.stats.HeartbeatsDropped++
		return
	}
	if d := t.hold(plan); d > 0 {
		t.stats.Delayed++
		t.n.rt.Schedule(d, func() { t.inner.SendHeartbeat(l) })
		return
	}
	t.inner.SendHeartbeat(l)
}

// SetLinkDown implements Transport: component failures pass straight
// through; chaos-layer partitions are independent of link health.
func (t *ChaosTransport) SetLinkDown(l topology.LinkID, down bool) { t.inner.SetLinkDown(l, down) }

// Close implements Transport.
func (t *ChaosTransport) Close() { t.inner.Close() }

// InTransit extends the inner transport's pooled-payload census with the
// packets the chaos layer is holding in delay timers, so the pool-balance
// invariant (Network.PoolOutstanding == InTransit) is checkable under chaos
// exactly as it is under the plain sim transport.
func (t *ChaosTransport) InTransit() (frames, data int) {
	if st, ok := t.inner.(*SimTransport); ok {
		frames, data = st.InTransit()
	}
	return frames + t.heldFrames, data + t.heldData
}
