package bcpd

import (
	"fmt"

	"github.com/rtcl/bcp/internal/idtab"
	"github.com/rtcl/bcp/internal/rtchan"
)

// The daemons' soft state is one record per channel, not one map entry per
// (node, channel): the route every hop forwards along is the channel's own
// Path, stored once, and what differs from hop to hop — the Figure-4 state,
// the end node's known-failed mark, the rejoin arm — is an 8-byte slot at the
// node's position on that path. Every protocol callback runs under the
// runtime's one execution lock, so the Network owns the table and a daemon
// is an index into it. A record lives from the first hop that leaves N to
// the last that returns to it.

// hopSlot is one node's soft state for one channel. arm is zero when no
// rejoin timer is armed here, k+1 for entry k of softTable.arms, and -(k+1)
// while the arm is entry k of the open round's staging list.
type hopSlot struct {
	state  chanState
	failed bool // an end node's "this backup is known to have failed"
	arm    int32
}

// chanSoft is a channel's soft state across its whole path.
type chanSoft struct {
	ch   *rtchan.Channel
	hops []hopSlot // by position on ch.Path
	// probe is the source's rejoin-probe callback, built once per source
	// incarnation outside per-message mode (daemon.scheduleRejoinProbe).
	probe func()
	live  int32 // hops not in N
	// promoted dedups resource-plane promotion (the two activations of
	// Scheme 3 can both reach completion); a rejoin rearms it.
	promoted bool
	// retired marks a channel TeardownConnection released: its record keeps
	// routing in-flight closures and stale reports after the registry entry
	// is gone, as a real daemon's routing state outlives the global view.
	retired bool
}

// state returns hop i's state; i < 0 (no record, or a node off the path)
// reads as N.
func (r *chanSoft) state(i int) chanState {
	if i < 0 {
		return stateN
	}
	return r.hops[i].state
}

// softTable is the Network's soft-state store: the id table, the chunks
// records and slots are carved from, the free lists they recycle through
// (by path length, so a recycled record keeps its slots), and the slab of
// armed rejoin timers the slots' handles index.
type softTable struct {
	tab       idtab.Table[rtchan.ChannelID, chanSoft]
	free      [][]*chanSoft // by len(hops)
	recChunk  []chanSoft
	slotChunk []hopSlot
	arms      []rejoinRef
	armFree   []int32 // free handles: slab index + 1
}

const (
	softRecChunk  = 128
	softSlotChunk = 1024
)

// softFor returns ch's record, creating it with every hop in N if the
// channel has none. The caller moves a hop out of N before returning to the
// runtime; a record with no live hop does not otherwise exist.
func (n *Network) softFor(ch *rtchan.Channel) *chanSoft {
	s := &n.soft
	if r := s.tab.Get(ch.ID); r != nil {
		return r
	}
	k := len(ch.Path.Nodes())
	for len(s.free) <= k {
		s.free = append(s.free, nil)
	}
	r := pop(&s.free[k])
	if r == nil {
		if len(s.recChunk) == 0 {
			s.recChunk = make([]chanSoft, softRecChunk)
		}
		if len(s.slotChunk) < k {
			s.slotChunk = make([]hopSlot, max(k, softSlotChunk))
		}
		r, s.recChunk = &s.recChunk[0], s.recChunk[1:]
		r.hops, s.slotChunk = s.slotChunk[:k:k], s.slotChunk[k:]
	}
	r.ch = ch
	s.tab.Set(ch.ID, r)
	return r
}

// freeSoft recycles a record whose last hop has returned to N; its slots
// are all zero again by then.
func (n *Network) freeSoft(r *chanSoft) {
	s := &n.soft
	s.tab.Delete(r.ch.ID)
	*r = chanSoft{hops: r.hops}
	s.free[len(r.hops)] = append(s.free[len(r.hops)], r)
}

// putArm stores ref in the slab and points h at it.
func (n *Network) putArm(h *hopSlot, ref rejoinRef) {
	s := &n.soft
	if h.arm = pop(&s.armFree); h.arm == 0 {
		s.arms = append(s.arms, rejoinRef{})
		h.arm = int32(len(s.arms))
	}
	s.arms[h.arm-1] = ref
}

// dropArm takes h's arm — firing, or being stopped — out of the slab.
func (n *Network) dropArm(h *hopSlot) (ref rejoinRef) {
	s := &n.soft
	ref, s.arms[h.arm-1] = s.arms[h.arm-1], ref
	s.armFree = append(s.armFree, h.arm)
	h.arm = 0
	return ref
}

// checkSoft audits the table's own bookkeeping at a quiet point (appended to
// CheckQuiescence): a record is filed under its channel's id with one slot
// per path node, counts its live hops exactly and has at least one, a hop in
// N holds nothing, every arm handle names a pending entry of the slab — none
// staged, since no round is open — with no slab entry unaccounted for, and
// there is a record for each channel the resource plane holds and no other.
func (n *Network) checkSoft(v []string) []string {
	s := &n.soft
	handles := 0
	s.tab.Each(func(id rtchan.ChannelID, r *chanSoft) {
		if r.ch.ID != id || len(r.hops) != len(r.ch.Path.Nodes()) {
			v = append(v, fmt.Sprintf("soft state: record %d holds channel %d with %d slots for %d path nodes",
				id, r.ch.ID, len(r.hops), len(r.ch.Path.Nodes())))
		}
		live := 0
		for i, h := range r.hops {
			if h.state != stateN {
				live++
			} else if h.failed || h.arm != 0 {
				v = append(v, fmt.Sprintf("soft state: channel %d hop %d is in N but holds state", id, i))
			}
			if h.arm != 0 {
				handles++
				if h.arm < 0 || int(h.arm) > len(s.arms) || !s.arms[h.arm-1].armOf(r, i) {
					v = append(v, fmt.Sprintf("soft state: channel %d hop %d: arm handle %d dangles", id, i, h.arm))
				}
			}
		}
		if live != int(r.live) || live == 0 {
			v = append(v, fmt.Sprintf("soft state: channel %d counts %d live hops, has %d", id, r.live, live))
		}
	})
	if held := n.mgr.Network().NumChannels(); s.tab.Len() != held {
		v = append(v, fmt.Sprintf("soft state: %d records for the %d channels the resource plane holds", s.tab.Len(), held))
	}
	if used := len(s.arms) - len(s.armFree); used != handles {
		v = append(v, fmt.Sprintf("soft state: %d arm slab entries in use, %d handles", used, handles))
	}
	return v
}
