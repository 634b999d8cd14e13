package bcpd

import (
	"fmt"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
)

// Dispatch rounds batch the protocol's fan-out. A mass failure makes one
// event — a received control frame, a detection timer — touch many channels,
// and the per-message engine paid per message: one rcc.Submit (timer-heap
// push + tx-timer check) per control, one Schedule per rejoin arm. A round
// brackets such an event and coalesces everything it emits:
//
//   - controls staged per outgoing link, flushed as one SubmitBatch per
//     neighbor in first-touch order (the RCC packs them into S^RCC_max-sized
//     frames exactly as sequential Submits would, since no frame fires
//     mid-callback);
//   - rejoin arms staged and armed as ONE pooled batch timer carrying a flat
//     entry list (batchtimer.go) — no per-channel closures; they all share
//     RejoinTimeout, so they tie only with each other and staging order
//     preserves the per-message firing order;
//   - replenishments requested during the round staged and scheduled as one
//     batch timer the same way (they all share ReplenishDelay).
//
// Rounds never nest: control delivery is event-driven, so no frame arrives
// and no timer fires while a callback runs. beginRound reports whether it
// opened the round, and only the opener closes it, which makes wrapping
// re-entrant call paths (a notify handler already inside a delivery round)
// safe. Config.PerMessageDispatch disables rounds entirely, keeping the
// sequential engine as the A/B baseline.

// dispatchRound is the Network's staging area, reused across rounds.
type dispatchRound struct {
	active bool
	// links lists the LinkIDs touched this round in first-touch order —
	// the order the per-message path would have armed their tx timers in.
	links []topology.LinkID
	// pending[l] holds the controls staged for link l, in submit order.
	pending [][]wireControl
	// arms holds the rejoin arms staged this round (batchtimer.go); a hop's
	// slot names its staged arm by a negative handle until the round closes.
	arms []rejoinEntry
	// probes holds the rejoin probes staged this round, in request order.
	probes []probeEntry
	// repl holds the connections whose replenishment was requested this
	// round, in request order.
	repl []rtchan.ConnID
}

// beginRound opens a dispatch round and reports whether this caller opened
// it (and therefore must close it). Returns false when rounds are disabled
// or one is already active.
func (n *Network) beginRound() bool {
	if n.perMsg || n.round.active {
		return false
	}
	n.round.active = true
	return true
}

// endRound closes the round: staged controls flush as one SubmitBatch per
// touched link, then staged rejoin arms and replenish requests each become
// one live batch timer. Flushing happens inside the event that staged the
// work — same virtual timestamp, no intervening events — so the resulting
// frame and timer schedules are identical to the per-message path's.
func (n *Network) endRound() {
	r := &n.round
	r.active = false
	for _, l := range r.links {
		n.links[l].rccE.SubmitBatch(r.pending[l])
		r.pending[l] = r.pending[l][:0]
	}
	r.links = r.links[:0]
	n.flushRejoinArms()
	fund(n, &r.probes, &n.probeBatchFree, n.cfg.RejoinProbeDelay, true,
		func(_ *Network, e *probeEntry) { e.d.probeFire(e.chID) })
	fund(n, &r.repl, &n.replBatchFree, n.cfg.ReplenishDelay, false,
		func(n *Network, c *rtchan.ConnID) { n.replenishNow(*c) })
}

// stageControl queues c for link l until the round closes.
func (n *Network) stageControl(l topology.LinkID, c wireControl) {
	r := &n.round
	if len(r.pending[l]) == 0 {
		r.links = append(r.links, l)
	}
	r.pending[l] = append(r.pending[l], c)
}

// flushRejoinArms turns the round's staged arms into ONE live batch timer
// (batchtimer.go): a single heap insert and zero per-channel closures. The
// batch takes the staging list as it is — cancelled arms are skipped when it
// fires — so survivors keep their staging order, which is the order the
// per-message path would have Scheduled them in.
func (n *Network) flushRejoinArms() {
	r := &n.round
	if len(r.arms) == 0 {
		return
	}
	b := getBatch(n, &n.rejoinBatchFree, true, (*Network).fireRejoin)
	b.entries, r.arms = r.arms, b.entries
	live := false
	for i := range b.entries {
		if e := &b.entries[i]; !e.cancelled {
			n.putArm(&e.r.hops[e.idx], rejoinRef{batch: b, idx: int32(i)})
			live = true
		}
	}
	if !live {
		b.entries = b.entries[:0]
		n.rejoinBatchFree = append(n.rejoinBatchFree, b)
		return
	}
	n.rt.Schedule(n.cfg.RejoinTimeout, b.fire)
}

// fund hands the round's staged entries of one kind, if any, to one batch
// timer due after d (getBatch, batchtimer.go); they fire in staging order.
func fund[E any](n *Network, staged *[]E, free *[]*timerBatch[E], d sim.Duration, inRound bool, each func(*Network, *E)) {
	if len(*staged) == 0 {
		return
	}
	b := getBatch(n, free, inRound, each)
	b.entries, *staged = *staged, b.entries
	n.rt.Schedule(d, b.fire)
}

// checkRoundQuiescence audits the staging area between events; any residue
// means a round opener failed to close (appended to CheckQuiescence).
func (n *Network) checkRoundQuiescence(v []string) []string {
	if n.round.active {
		v = append(v, "dispatch round left open")
	}
	if len(n.round.links) > 0 || len(n.round.arms) > 0 || len(n.round.probes) > 0 || len(n.round.repl) > 0 {
		v = append(v, fmt.Sprintf("dispatch round residue: %d staged links, %d staged arms, %d staged probes, %d staged replenishes",
			len(n.round.links), len(n.round.arms), len(n.round.probes), len(n.round.repl)))
	}
	return v
}
