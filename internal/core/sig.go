package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/rtcl/bcp/internal/reliability"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// The multiplexing rule (§3.2) needs S(Bi,Bj) for every pair of backups that
// meet on a link, and S is a function of the two *primary* paths alone: their
// component counts c(Mi), c(Mj) and the number of components they share.
// NetworkPlan.sig holds what that takes, one fixed-stride row per live
// D-connection: word 0 is c(M) — 0 while the connection has no primary — and
// the remaining words are a bitset over the graph's node ids followed by its
// link ids with the primary's components set. sc(Mi,Mj) is then the popcount
// of the AND of two rows, and a decision reads two rows and one threshold
// (below) and nothing else: no connection, channel or path is dereferenced on
// the admission scan.
//
// Rows come from a free list, so the slab is bounded by the peak number of
// live connections. A connection owns its row from the moment its id is
// minted until it leaves plan.conns (or its establishment rolls back), and
// primaryChanged rewrites the row at every site that assigns conn.Primary.
// Every write, and every admission scan that reads the rows, happens under
// the writer lock.

// sigRow returns row i of the slab.
func (p *NetworkPlan) sigRow(i int32) []uint64 {
	off := int(i) * p.sigStride
	return p.sig[off : off+p.sigStride : off+p.sigStride]
}

// allocSig hands out an all-zero row.
func (p *NetworkPlan) allocSig() int32 {
	if n := len(p.sigFree); n > 0 {
		i := p.sigFree[n-1]
		p.sigFree = p.sigFree[:n-1]
		return i
	}
	i := int32(len(p.sig) / p.sigStride)
	p.sig = append(p.sig, make([]uint64, p.sigStride)...)
	return i
}

// releaseSig zeroes row i and returns it to the free list.
func (p *NetworkPlan) releaseSig(i int32) {
	clear(p.sigRow(i))
	p.sigFree = append(p.sigFree, i)
}

// writeSig overwrites row with the signature of the primary path given by its
// link and node sequences.
func (p *NetworkPlan) writeSig(row []uint64, links []topology.LinkID, nodes []topology.NodeID) {
	clear(row)
	row[0] = uint64(2*len(links) + 1)
	set := row[1:]
	for _, n := range nodes {
		set[n>>6] |= 1 << (uint(n) & 63)
	}
	base := p.net.Graph().NumNodes()
	for _, l := range links {
		b := base + int(l)
		set[b>>6] |= 1 << (uint(b) & 63)
	}
}

// writeConnSig overwrites row with the signature conn's current primary
// calls for: all-zero when it has none.
func (p *NetworkPlan) writeConnSig(row []uint64, conn *DConnection) {
	if conn.Primary == nil {
		clear(row)
		return
	}
	p.writeSig(row, conn.Primary.Path.Links(), conn.Primary.Path.Nodes())
}

// primaryChanged records that conn's primary channel changed (established,
// promoted, demoted or lost): its row is rewritten from the new primary, and
// the Π structure of every link hosting one of its surviving backups is stale
// (see reconfig.go).
func (m *Manager) primaryChanged(conn *DConnection) {
	row := m.plan.sigRow(conn.sig)
	m.moveConnCols(conn, row, true)
	m.plan.writeConnSig(row, conn)
	m.moveConnCols(conn, row, false)
	m.markPiStale(conn)
}

// moveConnCols clears (or sets) the node-column bits row selects for every
// mux entry of conn's backups: primaryChanged clears them under the old row
// and sets them under the new one.
func (m *Manager) moveConnCols(conn *DConnection, row []uint64, drop bool) {
	for _, b := range conn.Backups {
		for _, l := range b.Path.Links() {
			lm := &m.plan.mux[l]
			if i := lm.find(b.ID); i >= 0 {
				if drop {
					m.plan.moveCols(lm, row, i, -1)
				} else {
					m.plan.moveCols(lm, row, -1, i)
				}
			}
		}
	}
}

// forget removes a connection that has no channels left from the plan and
// frees its signature row.
func (m *Manager) forget(conn *DConnection) {
	m.plan.conns.Delete(conn.ID)
	m.plan.releaseSig(conn.sig)
}

// The rule itself (§3.2) is "multiplex iff S(Bi,Bj) < ν", and S depends on
// the pair only through c(Mi), c(Mj) and sc(Mi,Mj). For fixed component
// counts S is non-decreasing in sc (newQpowTab asserts the monotonicity this
// rests on), so "S ≥ ν" is "sc ≥ K" for the least sc at which S reaches ν:
// piThresholds holds that K per (ν, c(Mn), c(Me)), and the decision compares
// an overlap with it instead of evaluating S: bit-identical by construction.
// The table is a function of (λ, ν, the two counts) alone, not a memo of
// anything a connection or link holds, so no write ever invalidates a row.
// At λ = 1e-4, K = α for most cells (S ≈ sc·λ); long primaries get less.

// piThresholds is the plan's integer form of the Π decision. Each distinct ν
// is a class, numbered in first-use order; rows[cls][cn][ce] is K for class
// cls, a new-side primary of cn components and an existing one of ce, built a
// row at a time on first use under the writer lock. A row or entry for a
// count of 0 (no primary) is 0: such a backup counts, and is counted by,
// everything. An entry no overlap reaches is min(ce,cn)+1. least[cls][cn] is
// the row's least entry over ce ≥ 1, kept beside it when thrRow builds it.
type piThresholds struct {
	qpowTab []float64 // (1-λ)^k by k; read only by simS, for the rows
	nus     []float64 // ν by class
	rows    [][][]uint16
	least   [][]uint16
}

// newPiThresholds returns the table for λ on a graph of numNodes nodes, with
// no class registered yet.
func newPiThresholds(lambda float64, numNodes int) piThresholds {
	return piThresholds{qpowTab: newQpowTab(lambda, numNodes)}
}

// newQpowTab returns (1-λ)^k for k up to any component sum two primaries can
// produce: a simple path has at most 2(N-1)+1 components. Entries are
// computed with math.Pow so simS is bit-identical to the reference
// reliability.SimultaneousActivation formula. The table must be
// non-increasing in k: with the subtractions in simS rounding monotonically,
// that makes S non-decreasing in sc, which is what the thresholds rest on.
func newQpowTab(lambda float64, numNodes int) []float64 {
	t := make([]float64, 4*numNodes+1)
	for k := range t {
		t[k] = math.Pow(1-lambda, float64(k))
		if k > 0 && t[k] > t[k-1] {
			panic(fmt.Sprintf("core: (1-λ)^k not monotone at λ=%g k=%d", lambda, k))
		}
	}
	return t
}

// simS is S(Bi,Bj) given the primaries' component counts and their overlap:
// three table loads instead of three math.Pow calls. Only thrRow calls it.
func (p *NetworkPlan) simS(ci, cj, sc int) float64 {
	t := p.thr.qpowTab
	s := 1 - (t[ci] + t[cj] - t[ci+cj-sc])
	if s < 0 { // clamp tiny negative round-off, as the reference does
		return 0
	}
	return s
}

// degreeClass returns the class of multiplexing degree alpha's threshold
// ν = (α-0.5)·λ, registering it on first use. Callers hold the writer lock.
func (p *NetworkPlan) degreeClass(alpha int) int32 {
	nu := reliability.NuForDegree(p.cfg.Lambda, alpha)
	t := &p.thr
	for i, v := range t.nus {
		if v == nu {
			return int32(i)
		}
	}
	t.nus = append(t.nus, nu)
	t.rows = append(t.rows, make([][]uint16, 2*p.net.Graph().NumNodes()))
	t.least = append(t.least, make([]uint16, 2*p.net.Graph().NumNodes()))
	return int32(len(t.nus) - 1)
}

// thrRow returns class cls's thresholds for a new-side primary of cn
// components, indexed by the existing side's count, building the row on
// first use. Callers hold the writer lock.
func (p *NetworkPlan) thrRow(cls int32, cn int) []uint16 {
	if r := p.thr.rows[cls][cn]; r != nil {
		return r
	}
	nu := p.thr.nus[cls]
	r := make([]uint16, len(p.thr.rows[cls]))
	least := uint16(0)
	if cn > 0 {
		least = math.MaxUint16
		for ce := 1; ce < len(r); ce++ {
			n := min(ce, cn) + 1
			r[ce] = uint16(sort.Search(n, func(sc int) bool { return p.simS(ce, cn, sc) >= nu }))
			least = min(least, r[ce])
		}
	}
	p.thr.rows[cls][cn], p.thr.least[cls][cn] = r, least
	return r
}

// leastThreshold returns K for a new-side primary of cn components: the
// least threshold any registered class row holds for cn over existing
// counts ce ≥ 1. Every threshold a decision against such a primary reads is
// a row entry for cn (pairThresholds) or min(ce,cn)+1, so neither side
// counts the other below an overlap of K. Callers hold the writer lock.
func (p *NetworkPlan) leastThreshold(cn int) int {
	k := math.MaxUint16
	for cls := range p.thr.nus {
		p.thrRow(int32(cls), cn)
		k = min(k, int(p.thr.least[cls][cn]))
	}
	return k
}

// pairThresholds returns the overlaps at which an existing backup of class
// eCls counts a new one of class newCls (ke) and the reverse (kn), for
// primaries of ce and cn components. Each side compares against its own ν,
// and only counts peers whose ν is no greater than its own; a side that may
// not count gets min(ce,cn)+1.
// A primary-less side (count 0) counts and is counted unconditionally.
func (p *NetworkPlan) pairThresholds(ce, cn int, eCls, newCls int32) (ke, kn int) {
	if ce == 0 || cn == 0 {
		return 0, 0
	}
	ke, kn = min(ce, cn)+1, min(ce, cn)+1
	nuE, nuN := p.thr.nus[eCls], p.thr.nus[newCls]
	if nuN <= nuE {
		ke = int(p.thrRow(eCls, cn)[ce])
	}
	if nuE <= nuN {
		kn = int(p.thrRow(newCls, cn)[ce])
	}
	return ke, kn
}

// sigShared returns sc(Mi,Mj) for two signature rows: the number of
// components both primaries contain.
func sigShared(a, b []uint64) int {
	sc := 0
	b = b[:len(a)]
	for i := 1; i < len(a); i++ {
		sc += bits.OnesCount64(a[i] & b[i])
	}
	return sc
}

// sharedAtLeast reports sc(Mi,Mj) ≥ k for two signature rows, reading the
// link words only when the node words cannot decide (reaches).
func (p *NetworkPlan) sharedAtLeast(a, b []uint64, k int) bool {
	return p.reaches(a, b, p.sharedNodes(a, b), k)
}

// sharedNodes returns the number of nodes two signature rows share. The last
// node word also holds the first link bits, so it is masked.
func (p *NetworkPlan) sharedNodes(a, b []uint64) int {
	nw := p.sigNodeWords
	b = b[:len(a)]
	sn := bits.OnesCount64(a[nw] & b[nw] & p.sigNodeMask)
	for i := 1; i < nw; i++ {
		sn += bits.OnesCount64(a[i] & b[i])
	}
	return sn
}

// reaches reports sc(Mi,Mj) ≥ k given sn, the nodes the two rows share. Two
// simple paths that share sn nodes share between sn and 2sn-1 components
// (the shared links all join shared nodes and lie on one simple path, so
// there are at most sn-1 of them), and none when sn = 0: only
// sn < k ≤ 2sn-1 needs the link words.
func (p *NetworkPlan) reaches(a, b []uint64, sn, k int) bool {
	if k <= sn || k > 2*sn-1 {
		return k <= sn
	}
	return sigShared(a, b) >= k
}

// piProbe is the new side of a Π decision: the signature row of the new
// backup's primary, its threshold class and that class's thresholds for the
// row's component count (thrRow), resolved once per scan, and shared, the
// least number of nodes an existing primary must share with the new one for
// either side to count the other. No decision is true below an overlap of
// K = leastThreshold, and reaches finds sc ≥ K only when sn ≥ ⌈(K+1)/2⌉ (or
// K = 0); capped at 2, that is min(K, 2). The cap keeps the entries of the
// new backup's own connection, which share every node of a primary of at
// least two, as candidates. With no primary K is 0, and so is shared: every
// entry is a candidate.
type piProbe struct {
	row    []uint64
	thr    []uint16
	cls    int32
	shared int
}

// probe returns the new side of the decisions for a backup of class cls
// whose primary has signature row row. Callers hold the writer lock.
func (p *NetworkPlan) probe(row []uint64, cls int32) piProbe {
	cn := int(row[0])
	return piProbe{row: row, thr: p.thrRow(cls, cn), cls: cls, shared: min(p.leastThreshold(cn), 2)}
}

// muxDecide is the Π decision (§3.2) for an existing backup of class eCls,
// whose primary has signature row rowE, against the new one n describes.
// They may share spare bandwidth iff S < ν, evaluated per side against that
// side's ν, and each side only *counts* peers with no greater degree
// (pairThresholds). It reports (e counts new in Π(e), new counts e in
// Π(new)). Two backups of one class have one threshold, an entry of n.thr:
// one load and one overlap test. A connection that momentarily has no
// primary (its repaired channel is rejoining while recovery is still
// unresolved) gets conservative treatment: its backup shares spare with
// nothing — its row's count is 0, and so is every threshold that involves
// it. Backups of one connection never share spare either — the same primary
// failure activates them — which callers that can meet that case test by row
// index before calling.
func (p *NetworkPlan) muxDecide(rowE []uint64, eCls int32, n *piProbe) (eCountsNew, newCountsE bool) {
	if eCls != n.cls {
		ke, kn := p.pairThresholds(int(rowE[0]), int(n.row[0]), eCls, n.cls)
		return p.sharedAtLeast(rowE, n.row, ke), p.sharedAtLeast(rowE, n.row, kn)
	}
	// sharedAtLeast spelled out: the compiler does not inline it, and the
	// call costs a twentieth of the admission scan.
	c := p.reaches(rowE, n.row, p.sharedNodes(rowE, n.row), int(n.thr[rowE[0]]))
	return c, c
}

// checkSig validates the slab against the connections it summarises: every
// live connection's row is what a from-scratch rebuild from conn.Primary
// gives, no two connections share a row, every other row is on the free list
// exactly once and all-zero, and every mux entry carries its own connection's
// row index.
func (p *NetworkPlan) checkSig() error {
	rows := len(p.sig) / p.sigStride
	owner := make([]bool, rows)
	want := make([]uint64, p.sigStride)
	checkConn := func(id rtchan.ConnID, conn *DConnection) error {
		if conn.sig < 0 || int(conn.sig) >= rows {
			return fmt.Errorf("core: connection %d holds signature row %d of %d", id, conn.sig, rows)
		}
		if owner[conn.sig] {
			return fmt.Errorf("core: signature row %d has two owners", conn.sig)
		}
		owner[conn.sig] = true
		p.writeConnSig(want, conn)
		got := p.sigRow(conn.sig)
		for w := range want {
			if got[w] != want[w] {
				return fmt.Errorf("core: connection %d signature drift at word %d: stored %#x rebuilt %#x", id, w, got[w], want[w])
			}
		}
		return nil
	}
	var err error
	p.conns.Each(func(id rtchan.ConnID, conn *DConnection) {
		if err == nil {
			err = checkConn(id, conn)
		}
	})
	if err != nil {
		return err
	}
	if p.conns.Len()+len(p.sigFree) != rows {
		return fmt.Errorf("core: %d signature rows for %d connections and %d free", rows, p.conns.Len(), len(p.sigFree))
	}
	for _, i := range p.sigFree {
		if i < 0 || int(i) >= rows || owner[i] {
			return fmt.Errorf("core: free signature row %d is live, listed twice or out of range", i)
		}
		owner[i] = true
		for w, v := range p.sigRow(i) {
			if v != 0 {
				return fmt.Errorf("core: free signature row %d word %d = %#x", i, w, v)
			}
		}
	}
	for l := range p.mux {
		for _, e := range p.mux[l].entries {
			ch := p.net.Channel(e.id)
			if ch == nil || p.conns.Get(ch.Conn) == nil || p.conns.Get(ch.Conn).sig != e.sig {
				return fmt.Errorf("core: link %d entry %d carries signature row %d, not its connection's", l, e.id, e.sig)
			}
		}
	}
	return nil
}
