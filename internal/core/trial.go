package core

import (
	"math/bits"
	"slices"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// trialSnapshot is a flat copy of exactly what a failure trial reads from the
// plan, stamped with the plan epoch it was copied at. A trial walks it instead
// of the plan's pointers: which channels cross a failed link is a run of
// compact refs, and a backup's links are a span of one flat array, where the
// plan answers both through *rtchan.Channel, DConnection.Backups and Path.
//
// Connections are numbered densely in ConnID order (conns[i] is the i-th live
// connection) and backups in connection order, each connection's in serial
// order, so sorting dense indexes sorts by ConnID. A node failure needs no
// list of its own: every channel that visits a node crosses one of its in- or
// out-links (paths have at least one hop), and the trial's stamps remove the
// duplicates.
//
// The snapshot copies each connection's current primary and backups. A
// channel the reservation network still holds for a rejoin but the
// connection no longer lists (the old primary of a protocol-mode activation)
// is not part of the plan a trial evaluates.
type trialSnapshot struct {
	built bool
	epoch uint64 // plan.epoch the copy was taken at
	// refs lists the channels routed over each link:
	// refs[linkOff[l]:linkOff[l+1]] for link l.
	linkOff []int32
	refs    []chanRef
	conns   []connRec
	backups []backupRec
	bkLinks []topology.LinkID
	// avail is the pool activations on each link draw from: the link's
	// available spare, or the holder's fixed pools (NewTrialViewWithPools).
	avail []float64
}

// chanRef is one channel on a link: its connection and which of its channels.
type chanRef struct {
	conn int32 // dense connection index
	bk   int32 // dense backup index, or -1 for the primary
}

// connRec is what a trial reads of one connection.
type connRec struct {
	bw       float64
	id       rtchan.ConnID
	src, dst topology.NodeID
	deg      int32 // firstDegree: the ByDegree class and the priority key
	bk0, bk1 int32 // backups[bk0:bk1], serial order
}

// backupRec is one backup: its channel (Apply promotes it) and its links,
// bkLinks[l0:l1].
type backupRec struct {
	ch     *rtchan.Channel
	l0, l1 int32
}

// build recopies the snapshot from p at p's current epoch, reusing every
// buffer: a population no larger than the last one allocates nothing. pools,
// when non-nil, replaces each link's available spare.
func (s *trialSnapshot) build(p *NetworkPlan, pools []float64) {
	nl := p.net.Graph().NumLinks()
	s.linkOff = slices.Grow(s.linkOff[:0], nl+1)[:nl+1]
	clear(s.linkOff)
	s.conns, s.backups, s.bkLinks = s.conns[:0], s.backups[:0], s.bkLinks[:0]

	// Pass 1: the records, and each link's ref count in linkOff[l+1].
	count := func(path topology.Path) {
		for _, l := range path.Links() {
			s.linkOff[l+1]++
		}
	}
	p.conns.Each(func(id rtchan.ConnID, c *DConnection) {
		if c.Primary != nil {
			count(c.Primary.Path)
		}
		bk0 := int32(len(s.backups))
		for _, b := range c.Backups {
			count(b.Path)
			l0 := int32(len(s.bkLinks))
			s.bkLinks = append(s.bkLinks, b.Path.Links()...)
			s.backups = append(s.backups, backupRec{ch: b, l0: l0, l1: int32(len(s.bkLinks))})
		}
		s.conns = append(s.conns, connRec{
			bw: c.Spec.Bandwidth, id: id, src: c.Src, dst: c.Dst,
			deg: int32(firstDegree(c)), bk0: bk0, bk1: int32(len(s.backups)),
		})
	})

	// Pass 2: after the prefix sum linkOff[l] is link l's first slot and
	// serves as its fill cursor; the fill leaves each cursor on the next
	// link's first slot, so shifting them up one restores the offsets.
	for l := 1; l <= nl; l++ {
		s.linkOff[l] += s.linkOff[l-1]
	}
	s.refs = slices.Grow(s.refs[:0], int(s.linkOff[nl]))[:s.linkOff[nl]]
	fill := func(links []topology.LinkID, r chanRef) {
		for _, l := range links {
			s.refs[s.linkOff[l]] = r
			s.linkOff[l]++
		}
	}
	i := int32(0)
	p.conns.Each(func(_ rtchan.ConnID, c *DConnection) {
		if c.Primary != nil {
			fill(c.Primary.Path.Links(), chanRef{conn: i, bk: -1})
		}
		for b := s.conns[i].bk0; b < s.conns[i].bk1; b++ {
			bk := &s.backups[b]
			fill(s.bkLinks[bk.l0:bk.l1], chanRef{conn: i, bk: b})
		}
		i++
	})
	copy(s.linkOff[1:], s.linkOff[:nl])
	s.linkOff[0] = 0

	s.avail = slices.Grow(s.avail[:0], nl)[:nl]
	if pools != nil {
		copy(s.avail, pools)
	} else {
		for l := range s.avail {
			s.avail[l] = p.mux[l].available()
		}
	}
	s.built, s.epoch = true, p.epoch
}

// onLink returns the refs of the channels routed over link l.
func (s *trialSnapshot) onLink(l topology.LinkID) []chanRef {
	return s.refs[s.linkOff[l]:s.linkOff[l+1]]
}

// trialScratch is one holder's trial state: the snapshot and the per-trial
// marks over it. Each TrialView holds one, as do Manager.Trial (behind
// trialMu) and Apply (under the write lock). The marks are
// generation-stamped — advancing gen invalidates every slot at once — and
// sized from the snapshot, by dense connection, dense backup and link index,
// so a holder's memory follows the live population, not the peak id ever
// issued.
type trialScratch struct {
	snap  trialSnapshot
	gen   uint32
	conn  []connMark  // by dense connection index
	bkHit []uint32    // by dense backup index: gen when the failure disabled it
	claim []linkClaim // by LinkID: bandwidth claimed this trial
	conns []int32     // dense indexes of the connections touched this trial
	need  denseSet    // the connections whose primary needs a backup
	needs []int32     // need, drained in activation order

	// pools, when set, replaces each link's available spare as the pool
	// activations draw from (by LinkID; NewTrialViewWithPools). It is how a
	// comparison scheme that sizes spare differently runs the same walk.
	pools []float64

	// Per-degree accumulation for RecoveryStats.ByDegree. A trial sees a
	// handful of distinct degrees, so a linear-scan pair of slices beats a
	// map in the per-connection hot path; the map is materialized once at
	// the end of the trial.
	degAlpha []int
	degStat  []DegreeStats

	// keepWinners makes tryActivate record each backup it activates (dense
	// index), in activation order. Only Apply's scratch sets it: a trial has
	// no use for the list, and Apply turns exactly these claims into
	// promotions.
	keepWinners bool
	winners     []int32
}

// connMark is one connection's per-trial state, valid when gen matches.
type connMark struct {
	gen  uint32
	bkup int32 // backups the failure disabled
	prim bool  // the failure disabled the primary
}

// denseSet is a set of dense connection indexes kept as a bitmap, which
// reads back ascending, in connection-id order, without a sort. words[lo:hi]
// holds every set bit; hi == 0 means empty.
type denseSet struct {
	words  []uint64
	lo, hi int
}

// resize empties the set and sizes it for indexes below n.
func (d *denseSet) resize(n int) {
	w := (n + 63) / 64
	d.words = slices.Grow(d.words[:0], w)[:w]
	clear(d.words)
	d.lo, d.hi = 0, 0
}

// add puts index c in the set.
func (d *denseSet) add(c int32) {
	w := int(c >> 6)
	if d.hi == 0 || w < d.lo {
		d.lo = w
	}
	if w >= d.hi {
		d.hi = w + 1
	}
	d.words[w] |= 1 << (uint(c) & 63)
}

// drain appends the set's members to dst, ascending, and empties the set.
func (d *denseSet) drain(dst []int32) []int32 {
	for w := d.lo; w < d.hi; w++ {
		for x := d.words[w]; x != 0; x &= x - 1 {
			dst = append(dst, int32(w<<6|bits.TrailingZeros64(x)))
		}
		d.words[w] = 0
	}
	d.lo, d.hi = 0, 0
	return dst
}

// linkClaim is one link's per-trial claim, valid when gen matches.
type linkClaim struct {
	gen uint32
	bw  float64
}

// addDegree accumulates into the alpha class's per-trial breakdown.
func (t *trialScratch) addDegree(alpha, failed, recovered int) {
	for i, a := range t.degAlpha {
		if a == alpha {
			t.degStat[i].FailedPrimaries += failed
			t.degStat[i].FastRecovered += recovered
			return
		}
	}
	t.degAlpha = append(t.degAlpha, alpha)
	t.degStat = append(t.degStat, DegreeStats{FailedPrimaries: failed, FastRecovered: recovered})
}

// degreeMap builds the trial's ByDegree map (nil when no class was touched)
// and resets the accumulator for the next trial.
func (t *trialScratch) degreeMap() map[int]DegreeStats {
	if len(t.degAlpha) == 0 {
		return nil
	}
	m := make(map[int]DegreeStats, len(t.degAlpha))
	for i, a := range t.degAlpha {
		m[a] = t.degStat[i]
	}
	t.degAlpha = t.degAlpha[:0]
	t.degStat = t.degStat[:0]
	return m
}

// begin starts a new trial over p: it recopies the snapshot if p's epoch has
// moved since the last copy, then invalidates every mark.
func (t *trialScratch) begin(p *NetworkPlan) *trialSnapshot {
	s := &t.snap
	if !s.built || s.epoch != p.epoch {
		s.build(p, t.pools)
		// Stale stamps are from earlier generations, so resizing keeps them.
		t.conn = slices.Grow(t.conn[:0], len(s.conns))[:len(s.conns)]
		t.bkHit = slices.Grow(t.bkHit[:0], len(s.backups))[:len(s.backups)]
		t.claim = slices.Grow(t.claim[:0], len(s.avail))[:len(s.avail)]
		t.need.resize(len(s.conns))
	}
	t.gen++
	if t.gen == 0 { // wrapped: stamps from 2^32 trials ago are ambiguous
		clear(t.conn[:cap(t.conn)])
		clear(t.bkHit[:cap(t.bkHit)])
		clear(t.claim[:cap(t.claim)])
		t.gen = 1
	}
	t.conns = t.conns[:0]
	t.degAlpha = t.degAlpha[:0]
	t.degStat = t.degStat[:0]
	return s
}

// mark records that the failure disabled the channel r refers to, touching
// its connection on first sight.
func (t *trialScratch) mark(r chanRef) {
	m := &t.conn[r.conn]
	if m.gen != t.gen {
		*m = connMark{gen: t.gen}
		t.conns = append(t.conns, r.conn)
	}
	if r.bk < 0 {
		m.prim = true
	} else if t.bkHit[r.bk] != t.gen {
		t.bkHit[r.bk] = t.gen
		m.bkup++
	}
}

// primaryHit reports whether this trial disabled connection c's primary.
func (t *trialScratch) primaryHit(c int32) bool {
	m := &t.conn[c]
	return m.gen == t.gen && m.prim
}

// backupHit reports whether this trial disabled backup b.
func (t *trialScratch) backupHit(b int32) bool { return t.bkHit[b] == t.gen }

// claimed returns the bandwidth claimed on link l this trial.
func (t *trialScratch) claimed(l topology.LinkID) float64 {
	if c := &t.claim[l]; c.gen == t.gen {
		return c.bw
	}
	return 0
}

// claimLink draws bw from link l's pool for this trial.
func (t *trialScratch) claimLink(l topology.LinkID, bw float64) {
	c := &t.claim[l]
	if c.gen != t.gen {
		*c = linkClaim{gen: t.gen}
	}
	c.bw += bw
}
