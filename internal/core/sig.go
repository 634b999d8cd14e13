package core

import (
	"fmt"
	"math"
	"math/bits"

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
// of the AND of two rows, and a decision reads two rows and nothing else: no
// connection, channel or path is dereferenced on the admission scan.
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
	m.plan.writeConnSig(m.plan.sigRow(conn.sig), conn)
	m.markPiStale(conn)
}

// forget removes a connection that has no channels left from the plan and
// frees its signature row.
func (m *Manager) forget(conn *DConnection) {
	m.plan.conns.Delete(conn.ID)
	m.plan.releaseSig(conn.sig)
}

// newQpowTab returns (1-λ)^k for k up to any component sum two primaries can
// produce: a simple path has at most 2(N-1)+1 components. Entries are
// computed with math.Pow so simS is bit-identical to the reference
// reliability.SimultaneousActivation formula.
func newQpowTab(lambda float64, numNodes int) []float64 {
	t := make([]float64, 4*numNodes+1)
	for k := range t {
		t[k] = math.Pow(1-lambda, float64(k))
	}
	return t
}

// simS is S(Bi,Bj) given the primaries' component counts and their overlap:
// three table loads instead of three math.Pow calls.
func (p *NetworkPlan) simS(ci, cj, sc int) float64 {
	t := p.qpowTab
	s := 1 - (t[ci] + t[cj] - t[ci+cj-sc])
	if s < 0 { // clamp tiny negative round-off, as the reference does
		return 0
	}
	return s
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

// muxDecide is the Π decision (§3.2) for an existing backup e against a new
// one, each given by its connection's signature row and its own threshold ν:
// they may share spare bandwidth iff S < ν, evaluated per side against that
// side's ν, and each side only *counts* peers with no greater degree. It
// reports (e counts new in Π(e), new counts e in Π(new)). A connection that
// momentarily has no primary (its repaired channel is rejoining while
// recovery is still unresolved) gets conservative treatment: its backup
// shares spare with nothing. Backups of one connection never share spare
// either — the same primary failure activates them — which callers that can
// meet that case test by row index before calling.
func (p *NetworkPlan) muxDecide(rowE, rowNew []uint64, eNu, newNu float64) (eCountsNew, newCountsE bool) {
	ce, cn := rowE[0], rowNew[0]
	if ce == 0 || cn == 0 {
		return true, true
	}
	s := p.simS(int(ce), int(cn), sigShared(rowE, rowNew))
	if p.cfg.DisablePiDegreeRestriction {
		return s >= eNu, s >= newNu
	}
	eCountsNew = newNu <= eNu && s >= eNu
	newCountsE = eNu <= newNu && s >= newNu
	return eCountsNew, newCountsE
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
