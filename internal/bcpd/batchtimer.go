package bcpd

import (
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
)

// Batched timers take the round's timer coalescing to its conclusion. A mass
// failure arms one rejoin timer per stopped channel and one replenish timer
// per activated connection — hundreds of heap entries and hundreds of
// closures per storm, each closure capturing the channel identity it fires
// for. All arms staged in one dispatch round share the same deadline, so the
// batched engine funds the whole round with ONE timer whose payload is a
// plain entry list: no per-channel closures, one heap insert, and the batch
// (entry storage plus its single prebuilt fire closure) recycles through a
// pool once it fires. The per-message engine keeps one timer and one fresh
// closure per arm — it is the pre-batching baseline the benchmarks compare
// against.
//
// Cancellation cannot go through sim.Timer.Stop anymore (stopping the shared
// timer would kill every other arm), so a batch entry is cancelled by
// marking it in place; the fire loop skips marked entries, exactly as the
// per-message path's Schedule-then-Stop leaves no live timer. rejoinRef
// hides the two flavors from the hop slot that holds the arm.
//
// Firing order is unchanged: entries run in staging order, which is the
// order the per-message path would have Scheduled (and the engine fired)
// them in. The batch fire also opens a dispatch round of its own, so the
// closure announcements of an expiry burst coalesce into per-link frames
// just like the report storm that preceded them.

// rejoinRef is one armed rejoin timer, an entry of the Network's arm slab
// that a hop slot names by handle: either a private sim.Timer (per-message
// engine, or an arm made outside any round) or an entry of a shared
// timerBatch. A slot drops its handle when the arm fires or is stopped, so
// a ref never outlives its entry; the zero rejoinRef stops nothing.
type rejoinRef struct {
	t     sim.Timer
	batch *timerBatch[rejoinEntry]
	idx   int32
}

// stop cancels the referenced arm.
func (ref rejoinRef) stop() {
	if ref.batch != nil {
		ref.batch.entries[ref.idx].cancelled = true
		return
	}
	ref.t.Stop()
}

// armOf reports whether ref is the pending arm of hop idx of r (audit).
func (ref rejoinRef) armOf(r *chanSoft, idx int) bool {
	if b := ref.batch; b != nil {
		return int(ref.idx) < len(b.entries) && b.entries[ref.idx] == rejoinEntry{r: r, idx: int32(idx)}
	}
	return ref.t.Active()
}

// rejoinEntry is one hop's rejoin-expiry arm, staged in the open round and
// then inside the batch that funds the round — the identity the per-message
// closure would have captured, stored flat. cancelled marks an arm stopped
// again before it fired (in the round: a rejoin confirm racing a report in
// the same frame); it is skipped, exactly as the per-message path's
// Schedule-then-Stop leaves no live timer. A live entry's hop is in U, so
// its record cannot have been freed; a cancelled one's may have been, and is
// not looked at.
type rejoinEntry struct {
	r         *chanSoft
	idx       int32
	cancelled bool
}

// timerBatch funds every arm of one kind staged in one dispatch round with a
// single timer: the entries are payload, not captures, and the batch — entry
// storage plus its one prebuilt fire closure — recycles through the
// Network's free list for the kind once it has fired.
type timerBatch[E any] struct {
	entries []E
	fire    func()
}

// getBatch returns a recycled batch from free, or a new one that on firing
// runs each entry through each, in staging order, and returns to free. With
// inRound the whole burst runs inside one dispatch round, so what it emits
// coalesces into per-link frames and shared timers like the storm before it.
func getBatch[E any](n *Network, free *[]*timerBatch[E], inRound bool, each func(*Network, *E)) *timerBatch[E] {
	if b := pop(free); b != nil {
		return b
	}
	b := &timerBatch[E]{}
	b.fire = func() {
		opened := inRound && n.beginRound()
		for i := range b.entries {
			each(n, &b.entries[i])
		}
		if opened {
			n.endRound()
		}
		b.entries = b.entries[:0]
		*free = append(*free, b)
	}
	return b
}

// fireRejoin runs one batch entry unless it was cancelled — by an earlier
// entry of the same burst, possibly — retiring the arm first, as the engine
// does for a firing timer.
func (n *Network) fireRejoin(e *rejoinEntry) {
	if !e.cancelled {
		n.dropArm(&e.r.hops[e.idx])
		n.nodes[e.r.ch.Path.Nodes()[e.idx]].rejoinExpire(e.r, int(e.idx))
	}
}

// probeEntry is one channel's staged rejoin probe. Probes are fire-and-
// forget (the fire re-checks state U), so there is nothing to cancel; nor is
// there for a replenishment, whose entry is the connection id (the fire
// re-checks the backup count).
type probeEntry struct {
	d    *daemon
	chID rtchan.ChannelID
}
