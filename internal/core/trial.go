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
// list of its own. Each link's run starts with the endN channels whose path
// ends at the link's head, so a failed node reads every ref on its out-links
// and only that prefix on its in-links: a path that starts at or passes
// through the node leaves it by an out-link, and one that ends there arrives
// last on an in-link (paths are simple and have at least one hop). Each
// channel that visits the node is then read exactly once.
//
// The snapshot copies each connection's current primary and backups. A
// channel the reservation network still holds for a rejoin but the
// connection no longer lists (the old primary of a protocol-mode activation)
// is not part of the plan a trial evaluates.
type trialSnapshot struct {
	built bool
	epoch uint64 // plan.epoch the copy was taken at
	// refs lists the channels routed over each link:
	// refs[runs[l].off:runs[l+1].off] for link l.
	runs    []linkRun
	refs    []chanRef
	conns   []connRec
	alpha   []int // each degree class's α, in the order build met them
	backups []backupRec
	bkLinks []topology.LinkID
	// avail is the pool activations on each link draw from: the link's
	// available spare, or the holder's fixed pools (NewTrialViewWithPools).
	avail []float64
}

// linkRun is where one link's channels sit in trialSnapshot.refs.
type linkRun struct {
	off  int32 // the first slot
	endN int32 // the channels whose path ends on the link, first in the run
}

// chanRef is one channel on a link: its connection and which of its channels.
type chanRef struct {
	conn int32 // dense connection index
	bk   int32 // dense backup index, or -1 for the primary
}

// connRec is what a trial reads of one connection.
type connRec struct {
	bw       float64
	src, dst topology.NodeID
	deg      int32 // firstDegree: the priority key
	dcls     int32 // deg's index in alpha: the ByDegree class
	bk0, bk1 int32 // backups[bk0:bk1], serial order
}

// backupRec is one backup: its links, bkLinks[l0:l1].
type backupRec struct {
	l0, l1 int32
}

// build recopies the snapshot from p at p's current epoch, reusing every
// buffer: a population no larger than the last one allocates nothing. pools,
// when non-nil, replaces each link's available spare.
func (s *trialSnapshot) build(p *NetworkPlan, pools []float64) {
	nl := p.net.Graph().NumLinks()
	s.runs = slices.Grow(s.runs[:0], nl+1)[:nl+1]
	clear(s.runs)
	s.conns, s.backups, s.bkLinks, s.alpha = s.conns[:0], s.backups[:0], s.bkLinks[:0], s.alpha[:0]

	// Pass 1: the records, each link's ref count in runs[l+1].off and the
	// count of the paths ending on it in runs[l].endN.
	count := func(path topology.Path) {
		links := path.Links()
		for _, l := range links {
			s.runs[l+1].off++
		}
		s.runs[links[len(links)-1]].endN++
	}
	p.conns.Each(func(_ rtchan.ConnID, c *DConnection) {
		if c.Primary != nil {
			count(c.Primary.Path)
		}
		bk0 := int32(len(s.backups))
		for _, b := range c.Backups {
			count(b.Path)
			l0 := int32(len(s.bkLinks))
			s.bkLinks = append(s.bkLinks, b.Path.Links()...)
			s.backups = append(s.backups, backupRec{l0: l0, l1: int32(len(s.bkLinks))})
		}
		deg := firstDegree(c)
		k := slices.Index(s.alpha, deg)
		if k < 0 {
			k = len(s.alpha)
			s.alpha = append(s.alpha, deg)
		}
		s.conns = append(s.conns, connRec{
			bw: c.Spec.Bandwidth, src: c.Src, dst: c.Dst,
			deg: int32(deg), dcls: int32(k), bk0: bk0, bk1: int32(len(s.backups)),
		})
	})

	// Pass 2: after the prefix sum runs[l].off is link l's first slot. The
	// fill writes each run from two cursors, held in runs[l] meanwhile: endN
	// from the first slot for the paths ending on l, off from just past them
	// for the rest. It leaves off on the next link's first slot and endN on
	// the end of l's prefix, so shifting the offsets up one restores them and
	// subtracting them restores the counts.
	for l := 1; l <= nl; l++ {
		s.runs[l].off += s.runs[l-1].off
	}
	for l := range s.runs[:nl] {
		r := &s.runs[l]
		r.endN, r.off = r.off, r.off+r.endN
	}
	s.refs = slices.Grow(s.refs[:0], int(s.runs[nl].off))[:s.runs[nl].off]
	fill := func(links []topology.LinkID, r chanRef) {
		last := len(links) - 1
		for _, l := range links[:last] {
			s.refs[s.runs[l].off] = r
			s.runs[l].off++
		}
		end := &s.runs[links[last]].endN
		s.refs[*end] = r
		*end++
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
	for l := nl; l > 0; l-- {
		s.runs[l].off = s.runs[l-1].off
	}
	s.runs[0].off = 0
	for l := range s.runs[:nl] {
		s.runs[l].endN -= s.runs[l].off
	}

	s.avail = slices.Grow(s.avail[:0], nl)[:nl]
	if pools != nil {
		copy(s.avail, pools)
	} else {
		for l := range s.avail {
			s.avail[l] = p.available(topology.LinkID(l))
		}
	}
	s.built, s.epoch = true, p.epoch
}

// onLink returns the refs of the channels routed over link l.
func (s *trialSnapshot) onLink(l topology.LinkID) []chanRef {
	return s.refs[s.runs[l].off:s.runs[l+1].off]
}

// endingOn returns the refs of the channels whose path ends on link l.
func (s *trialSnapshot) endingOn(l topology.LinkID) []chanRef {
	r := s.runs[l]
	return s.refs[r.off : r.off+r.endN]
}

// trialScratch is one holder's trial state: the snapshot and the per-trial
// marks over it; each TrialView holds one. The stamps are
// generation-stamped — advancing gen invalidates every slot at once — and
// the claims and per-class counts are zero between trials, each trial
// clearing what it added. All are sized from the snapshot, by dense
// connection, dense backup, link and class index, so a holder's memory
// follows the live population, not the peak id ever issued.
type trialScratch struct {
	snap  trialSnapshot
	gen   uint32
	conn  []connMark // by dense connection index
	bkHit []uint32   // by dense backup index: gen when the failure disabled it
	claim []float64  // by LinkID: bandwidth claimed this trial
	need  denseSet   // the connections whose primary needs a backup
	needs []int32    // need, drained in activation order

	// pools, when set, replaces each link's available spare as the pool
	// activations draw from (by LinkID; NewTrialViewWithPools). It is how a
	// comparison scheme that sizes spare differently runs the same walk.
	pools []float64

	// degStat accumulates RecoveryStats.ByDegree by class index (the
	// snapshot's alpha); the map is materialized once at the end of the
	// trial.
	degStat []DegreeStats
}

// connMark is one connection's per-trial state, valid when gen matches.
type connMark struct {
	gen  uint32
	prim bool // the failure disabled the primary
	excl bool // an end node failed: the connection is outside the statistics
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

// degreeMap builds the trial's ByDegree map, keyed by α, from the classes
// with a failed primary (nil when there is none), and zeroes the
// accumulator for the next trial.
func (t *trialScratch) degreeMap() map[int]DegreeStats {
	n := 0
	for _, d := range t.degStat {
		if d.FailedPrimaries != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	m := make(map[int]DegreeStats, n)
	for k, d := range t.degStat {
		if d.FailedPrimaries != 0 {
			m[t.snap.alpha[k]] = d
		}
	}
	clear(t.degStat)
	return m
}

// begin starts a new trial over p: it recopies the snapshot if p's epoch has
// moved since the last copy, then invalidates every stamp.
func (t *trialScratch) begin(p *NetworkPlan) *trialSnapshot {
	s := &t.snap
	if !s.built || s.epoch != p.epoch {
		s.build(p, t.pools)
		// Stale stamps are from earlier generations, and claims and class
		// counts are zero between trials, so resizing keeps them all.
		t.conn = slices.Grow(t.conn[:0], len(s.conns))[:len(s.conns)]
		t.bkHit = slices.Grow(t.bkHit[:0], len(s.backups))[:len(s.backups)]
		t.claim = slices.Grow(t.claim[:0], len(s.avail))[:len(s.avail)]
		t.degStat = slices.Grow(t.degStat[:0], len(s.alpha))[:len(s.alpha)]
		t.need.resize(len(s.conns))
	}
	t.gen++
	if t.gen == 0 { // wrapped: stamps from 2^32 trials ago are ambiguous
		clear(t.conn[:cap(t.conn)])
		clear(t.bkHit[:cap(t.bkHit)])
		t.gen = 1
	}
	return s
}

// mark stamps the channel r refers to as disabled by f and counts it into
// stats. A connection's first stamp touches it and decides whether an end
// node failed, which excludes it from the statistics; a backup counts on its
// first stamp, and a primary counts once, by degree class, and needs a
// backup, unless its connection is excluded. Excluded connections are
// stamped too, so a stamp means exactly that f hits the channel.
func (t *trialScratch) mark(r chanRef, f *Failure, stats *RecoveryStats) {
	m := &t.conn[r.conn]
	if m.gen != t.gen {
		rec := &t.snap.conns[r.conn]
		*m = connMark{gen: t.gen, excl: len(f.nodes) > 0 && (f.NodeFailed(rec.src) || f.NodeFailed(rec.dst))}
		if m.excl {
			stats.ExcludedConns++
		}
	}
	if r.bk < 0 {
		if !m.prim {
			m.prim = true
			if !m.excl {
				stats.FailedPrimaries++
				t.degStat[t.snap.conns[r.conn].dcls].FailedPrimaries++
				t.need.add(r.conn)
			}
		}
	} else if t.bkHit[r.bk] != t.gen {
		t.bkHit[r.bk] = t.gen
		if !m.excl {
			stats.FailedBackups++
		}
	}
}

// backupHit reports whether this trial disabled backup b.
func (t *trialScratch) backupHit(b int32) bool { return t.bkHit[b] == t.gen }
