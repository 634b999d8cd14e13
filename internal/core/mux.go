package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// muxEntry is the per-link bookkeeping for one backup channel (§3.2). The
// channel's id and bandwidth, its connection's signature row and its
// threshold class are stored inline so find and the admission scans walk the
// entry slice without dereferencing the channel or the connection: 32 bytes,
// two entries to a cache line.
type muxEntry struct {
	id  rtchan.ChannelID
	sig int32 // the owning connection's row of plan.sig
	// cls is the class of the backup's threshold ν = (α-0.5)·λ, α the
	// paper's multiplexing degree: an index into plan.thr.nus (sig.go).
	cls int32
	bw  float64
	// req is this backup's spare-bandwidth requirement on the link:
	// bw(Bi) + Σ_{Bj ∈ Π(Bi,ℓ)} bw(Bj). Π itself is a row of linkMux.pi.
	req float64
}

// linkMux is one link's multiplexing state. The link's spare reservation is
// the maximum requirement over its entries; activation claims draw the pool
// down temporarily until reconfiguration.
//
// Entries live in a flat value slice, not a map: the admission scan
// (scanLink) walks the entries once per link of every new backup — the
// hottest loop of establishment, which the node columns narrow to the
// candidates — and a contiguous slice beats map iteration there. Lookups by channel ID (teardown, promotion, Ψ metrics)
// linear-scan the inline ids over tens of entries.
type linkMux struct {
	entries []muxEntry
	// pi is the link's Π relation (§3.2) as a row-major bit matrix over entry
	// indexes, stride words per row: bit j of row i is set iff entries[i]
	// counts entries[j] in Π(Bi,ℓ) — the backups Bi must NOT share spare
	// bandwidth with, restricted, per the paper's refinement, to backups whose
	// multiplexing degree is no greater than Bi's. Invariants: len(pi) ==
	// len(entries)*stride, no row has its own bit set, and no bit is set in
	// a column at or beyond len(entries). Every edit — establishment,
	// teardown, rejoin expiry, promotion, replenish — addresses bits by entry
	// index; nothing searches a member list. Only writers touch it: the
	// admission probe decides pairs from signature rows and reads req alone.
	// The stride only grows: restride widens the rows when an entry index
	// first needs another word, and a link that drains keeps the width.
	pi []uint64
	// cols is the link's node columns, the admission scan's filter: column
	// v < N (the graph's node count) is a bitset over entry indexes, stride
	// words like a Π row, with bit i set iff entries[i]'s connection has a
	// primary that visits node v; column N holds the entries whose
	// connection has no primary. They index the signature rows by node and
	// change wherever a row or an index does: wireLink, unwire,
	// primaryChanged and restride. No bit is set at or beyond len(entries).
	cols    []uint64
	stride  int
	claimed float64 // drawn by activations since the last reconfiguration
	// claims tracks protocol-mode activation claims by channel, so the
	// bidirectional activations of Scheme 3 stay idempotent per link.
	claims map[rtchan.ChannelID]float64
	// maxReq caches the max requirement over entries. Requirement growth
	// updates it in place (noteReq); shrinkage that might dethrone the
	// current max sets reqDirty instead, and the next requiredSpare call
	// rescans. This keeps the add path — one noteReq per grown entry —
	// free of full-link scans.
	maxReq   float64
	reqDirty bool
}

// find returns the index of the entry for channel id, or -1.
func (lm *linkMux) find(id rtchan.ChannelID) int {
	for i := range lm.entries {
		if lm.entries[i].id == id {
			return i
		}
	}
	return -1
}

// piSet records that entries[i] counts entries[j] in its Π set.
func (lm *linkMux) piSet(i, j int) {
	lm.pi[i*lm.stride+j>>6] |= 1 << (uint(j) & 63)
}

// piHas reports whether entries[i] counts entries[j] in its Π set.
func (lm *linkMux) piHas(i, j int) bool {
	return lm.pi[i*lm.stride+j>>6]&(1<<(uint(j)&63)) != 0
}

// piCount returns |Π| of entries[i].
func (lm *linkMux) piCount(i int) int {
	n := 0
	for _, w := range lm.pi[i*lm.stride : (i+1)*lm.stride] {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendEntry appends e with an empty Π row and no column bits, and returns
// its index. Rows and columns are widened first when the new index is the
// first to need another word (ncols is the column count, N+1); the matrix
// itself grows by append's amortised doubling.
func (lm *linkMux) appendEntry(e muxEntry, ncols int) int {
	n := len(lm.entries)
	if n>>6 >= lm.stride {
		lm.restride(n>>6+1, ncols)
	}
	lm.entries = append(lm.entries, e)
	// Words past len may hold a removed row; clear what the new row reuses.
	// (Not append(pi, make(...)...): the race build does not elide that make,
	// which would put one allocation per link into every establishment.)
	lm.pi = slices.Grow(lm.pi, lm.stride)[:len(lm.pi)+lm.stride]
	clear(lm.pi[n*lm.stride:])
	return n
}

// restride re-lays the matrix out at a wider stride, leaving room for the
// rows that will follow the one that forced the move, and the ncols node
// columns at the same stride. It is the only place the columns allocate.
func (lm *linkMux) restride(stride, ncols int) {
	n := len(lm.entries)
	grown := make([]uint64, n*stride, 2*n*stride)
	for i := 0; i < n; i++ {
		copy(grown[i*stride:], lm.pi[i*lm.stride:(i+1)*lm.stride])
	}
	cols := make([]uint64, ncols*stride)
	for v := 0; v < ncols && lm.stride > 0; v++ {
		copy(cols[v*stride:], lm.cols[v*lm.stride:(v+1)*lm.stride])
	}
	lm.pi, lm.cols, lm.stride = grown, cols, stride
}

// moveCols moves entry from's bit to entry to in every node column that
// signature row row selects: the columns of the nodes its primary visits, or
// the primary-less column when it has none. from < 0 only sets to's bits and
// to < 0 only clears from's.
func (p *NetworkPlan) moveCols(lm *linkMux, row []uint64, from, to int) {
	var fw, tw int
	var fb, tb uint64
	if from >= 0 {
		fw, fb = from>>6, 1<<(uint(from)&63)
	}
	if to >= 0 {
		tw, tb = to>>6, 1<<(uint(to)&63)
	}
	s := lm.stride
	if row[0] == 0 {
		c := lm.cols[p.sigNodes*s : (p.sigNodes+1)*s]
		c[fw] &^= fb
		c[tw] |= tb
		return
	}
	for k, w := range row[1 : 1+p.sigNodeWords] {
		if k == p.sigNodeWords-1 {
			w &= p.sigNodeMask
		}
		for ; w != 0; w &= w - 1 {
			v := k<<6 + bits.TrailingZeros64(w)
			c := lm.cols[v*s : (v+1)*s]
			c[fw] &^= fb
			c[tw] |= tb
		}
	}
}

// unwire swap-deletes the entry at index idx from link lm and removes it from
// the Π relation in one pass over the rows: row last moves to row idx, and in
// every remaining row column idx is tested and cleared — an entry that
// counted the departing backup sheds its bandwidth from req — and column
// last moves to column idx. The node columns drop idx's bits and move last's
// to idx, read from the two entries' signature rows. Shared by teardown,
// promotion and both rollbacks.
func (p *NetworkPlan) unwire(lm *linkMux, idx int) {
	last := len(lm.entries) - 1
	p.moveCols(lm, p.sigRow(lm.entries[idx].sig), idx, -1)
	if idx != last {
		p.moveCols(lm, p.sigRow(lm.entries[last].sig), last, idx)
	}
	s := lm.stride
	bw := lm.entries[idx].bw
	lm.noteReqShrink(lm.entries[idx].req)
	if idx != last {
		lm.entries[idx] = lm.entries[last]
		copy(lm.pi[idx*s:(idx+1)*s], lm.pi[last*s:])
	}
	lm.entries = lm.entries[:last]
	lm.pi = lm.pi[:last*s]
	iw, ib := idx>>6, uint64(1)<<(uint(idx)&63)
	lw, lb := last>>6, uint64(1)<<(uint(last)&63)
	for i := range lm.entries {
		row := lm.pi[i*s : (i+1)*s]
		if row[iw]&ib != 0 {
			row[iw] &^= ib
			e := &lm.entries[i]
			lm.noteReqShrink(e.req)
			e.req -= bw
		}
		if row[lw]&lb != 0 {
			row[lw] &^= lb
			row[iw] |= ib
		}
	}
}

// requiredSpare returns the max requirement over entries, rescanning only
// when a removal invalidated the cached value.
func (lm *linkMux) requiredSpare() float64 {
	if lm.reqDirty {
		var max float64
		for i := range lm.entries {
			if lm.entries[i].req > max {
				max = lm.entries[i].req
			}
		}
		lm.maxReq = max
		lm.reqDirty = false
	}
	return lm.maxReq
}

// noteReq folds one entry's (possibly grown) requirement into the cached max.
func (lm *linkMux) noteReq(req float64) {
	if req > lm.maxReq {
		lm.maxReq = req
	}
}

// noteReqShrink records that req dropped from a value that may have been the
// cached max; a rescan is deferred until the next requiredSpare call.
func (lm *linkMux) noteReqShrink(oldReq float64) {
	if oldReq >= lm.maxReq {
		lm.reqDirty = true
	}
}

// available returns the spare bandwidth an activation can still claim on
// link l: the rtchan account's spare pool, which only this package sizes,
// less what activations have claimed from it.
func (p *NetworkPlan) available(l topology.LinkID) float64 {
	return p.net.Spare(l) - p.mux[l].claimed
}

// scanLink is the admission scan of §3.2 for a new backup on a link, and the
// only loop that decides Π membership for a backup not yet wired: the new
// backup (its connection's signature row rowNew, threshold class cls,
// bandwidth bw) against the link's entries, one muxDecide each. It appends
// to *grow the entries whose Π sets gain the new backup and to *pi the
// entries the new backup's own Π set lists, and returns the new entry's
// requirement and the spare level the link must reach once it is wired —
// what requiredSpare would then return: the
// unchanged entries' max, the grown entries' new requirements, and req.
// sigNew is the new backup's connection's row index, so that backups of one
// connection never share spare (see muxDecide); a planned connection that has
// no row yet passes -1. It changes nothing but the link's cached max, which
// requiredSpare may settle: every caller holds the write lock.
//
// Only candidates are decided: the entries whose primaries share at least
// n.shared nodes with the new one (probe), read bit-parallel off the node
// columns of the new primary's nodes with "≥1" and "≥2" accumulators, and
// every primary-less entry. Any other entry is false both ways, so it
// neither grows nor counts; with n.shared = 0 every entry is a candidate.
func (p *NetworkPlan) scanLink(lm *linkMux, sigNew int32, rowNew []uint64, cls int32, bw float64, grow, pi *[]int32) (req, need float64) {
	g, q := *grow, *pi
	req = bw
	need = lm.requiredSpare()
	n := p.probe(rowNew, cls)
	s, ne := lm.stride, len(lm.entries)
	nodes := rowNew[1 : 1+p.sigNodeWords]
	for w := 0; w<<6 < ne; w++ {
		cand := ^uint64(0)
		if n.shared > 0 {
			var ones, twos uint64
			for k, nw := range nodes {
				if k == len(nodes)-1 {
					nw &= p.sigNodeMask
				}
				for ; nw != 0; nw &= nw - 1 {
					c := lm.cols[(k<<6+bits.TrailingZeros64(nw))*s+w]
					twos |= ones & c
					ones |= c
				}
			}
			if cand = ones; n.shared == 2 {
				cand = twos
			}
			cand |= lm.cols[p.sigNodes*s+w]
		}
		if rest := ne - w<<6; rest < 64 {
			cand &= 1<<uint(rest) - 1
		}
		for ; cand != 0; cand &= cand - 1 {
			i := w<<6 + bits.TrailingZeros64(cand)
			e := &lm.entries[i]
			eCountsNew, newCountsE := true, true
			if e.sig != sigNew {
				eCountsNew, newCountsE = p.muxDecide(p.sigRow(e.sig), e.cls, &n)
			}
			if eCountsNew {
				g = append(g, int32(i))
				if grown := e.req + bw; grown > need {
					need = grown
				}
			}
			if newCountsE {
				q = append(q, int32(i))
				req += e.bw
			}
		}
	}
	*grow, *pi = g, q
	if req > need {
		need = req
	}
	return req, need
}

// wireLink is the only writer that adds a backup to a link: it appends entry
// (its req as scanLink returned it), sets the Π bits scanLink listed, folds
// the grown requirements into the link's max and grows the spare pool to it,
// enforcing the capacity invariant, and sets the entry's node-column bits
// from its connection's signature row. On failure the link state is unchanged;
// no undo log is kept, the rare rollback unwires the entry like any other
// removal.
func (m *Manager) wireLink(l topology.LinkID, entry muxEntry, grow, pi []int32) error {
	lm := &m.plan.mux[l]
	n := lm.appendEntry(entry, m.plan.sigNodes+1)
	m.plan.moveCols(lm, m.plan.sigRow(entry.sig), -1, n)
	for _, i := range grow {
		e := &lm.entries[i]
		lm.piSet(int(i), n)
		e.req += entry.bw
		lm.noteReq(e.req)
	}
	for _, i := range pi {
		lm.piSet(n, int(i))
	}
	lm.noteReq(entry.req)
	need := lm.requiredSpare()
	if need > m.plan.net.Spare(l) {
		if err := m.plan.net.SetSpare(l, need); err != nil {
			// The undone growth may have held the cached max.
			m.plan.unwire(lm, n)
			lm.reqDirty = true
			return fmt.Errorf("core: link %d cannot grow spare to %g: %w", l, need, err)
		}
	}
	return nil
}

// addBackupToLink registers backup ch of conn on link l: one scan, one
// wiring. EstablishOnPaths, ReplenishBackups and RestoreAsBackup admit link
// by link through it, because a caller-supplied path may meet the
// connection's other backups.
func (m *Manager) addBackupToLink(l topology.LinkID, conn *DConnection, ch *rtchan.Channel, alpha int) error {
	pc := m.estCtx
	entry := muxEntry{
		id:  ch.ID,
		sig: conn.sig,
		cls: m.plan.degreeClass(alpha),
		bw:  ch.Bandwidth(),
	}
	entry.req = pc.scan(l, conn.sig, m.plan.sigRow(conn.sig), entry.cls, entry.bw)
	return m.wireLink(l, entry, pc.grow, pc.pi)
}

// scan runs scanLink on link l into pc's own lists, for the callers that keep
// no plan record: addBackupToLink and the Ψ prediction. It returns the new
// entry's requirement.
func (pc *planContext) scan(l topology.LinkID, sigNew int32, rowNew []uint64, cls int32, bw float64) float64 {
	pc.grow, pc.pi = pc.grow[:0], pc.pi[:0]
	req, _ := pc.m.plan.scanLink(&pc.m.plan.mux[l], sigNew, rowNew, cls, bw, &pc.grow, &pc.pi)
	return req
}

// removeBackupFromLink unregisters backup ch from link l, shrinking the
// spare pool if possible. Shrinking cannot fail.
func (m *Manager) removeBackupFromLink(l topology.LinkID, ch *rtchan.Channel) {
	lm := &m.plan.mux[l]
	idx := lm.find(ch.ID)
	if idx < 0 {
		return
	}
	m.plan.unwire(lm, idx)
	need := lm.requiredSpare()
	if need < m.plan.net.Spare(l) {
		// Never shrink below what activations have already claimed.
		if need < lm.claimed {
			need = lm.claimed
		}
		if err := m.plan.net.SetSpare(l, need); err != nil {
			panic("core: shrinking spare failed: " + err.Error())
		}
	}
}

// addBackup registers a backup on every link of its path, transactionally.
func (m *Manager) addBackup(conn *DConnection, ch *rtchan.Channel, alpha int) error {
	links := ch.Path.Links()
	for i, l := range links {
		if err := m.addBackupToLink(l, conn, ch, alpha); err != nil {
			for _, u := range links[:i] {
				m.removeBackupFromLink(u, ch)
			}
			return err
		}
	}
	return nil
}

// removeBackup unregisters a backup from all links of its path.
func (m *Manager) removeBackup(ch *rtchan.Channel) {
	for _, l := range ch.Path.Links() {
		m.removeBackupFromLink(l, ch)
	}
}

// PsiSizes returns |Ψ(B,ℓ)| for each link ℓ of backup ch's path: the number
// of backups multiplexed with it (all backups on the link minus Π minus the
// backup itself). Feeds the P_muxf bound of §3.3.
func (m *Manager) PsiSizes(ch *rtchan.Channel) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.psiSizes(ch)
}

func (m *Manager) psiSizes(ch *rtchan.Channel) []int {
	links := ch.Path.Links()
	out := make([]int, len(links))
	for i, l := range links {
		lm := &m.plan.mux[l]
		idx := lm.find(ch.ID)
		if idx < 0 {
			continue
		}
		out[i] = len(lm.entries) - lm.piCount(idx) - 1
	}
	return out
}

// BackupsOnLink returns the number of backup channels registered on link l.
func (m *Manager) BackupsOnLink(l topology.LinkID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.plan.mux[l].entries)
}

// SpareOnLink returns the committed spare reservation on link l.
func (m *Manager) SpareOnLink(l topology.LinkID) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.plan.net.Spare(l)
}

// recomputeLinkMux rebuilds the Π structure of one link from scratch —
// used by reconfiguration after primaries change (an activated backup's new
// primary path changes every S involving that connection).
func (m *Manager) recomputeLinkMux(l topology.LinkID) error {
	lm := &m.plan.mux[l]
	clear(lm.pi)
	for i := range lm.entries {
		e := &lm.entries[i]
		e.req = e.bw
	}
	// Each unordered entry pair once; the result is order-independent (a
	// pure function of the entry set).
	for i := range lm.entries {
		a := &lm.entries[i]
		n := m.plan.probe(m.plan.sigRow(a.sig), a.cls)
		for j := i + 1; j < len(lm.entries); j++ {
			b := &lm.entries[j]
			aCountsB, bCountsA := true, true
			if a.sig != b.sig {
				bCountsA, aCountsB = m.plan.muxDecide(m.plan.sigRow(b.sig), b.cls, &n)
			}
			if aCountsB {
				lm.piSet(i, j)
				a.req += b.bw
			}
			if bCountsA {
				lm.piSet(j, i)
				b.req += a.bw
			}
		}
	}
	lm.reqDirty = true // rebuilt from scratch; rescan the fresh requirements
	return m.plan.net.SetSpare(l, math.Max(lm.requiredSpare(), lm.claimed))
}

// CheckMuxInvariants validates the engine's internal consistency; tests call
// it after mutation sequences. Besides the paper-level invariants it
// cross-checks the incrementally maintained state (the per-link max
// requirement, the Π matrices, the node columns and the primary-signature
// slab) against from-scratch recomputation.
func (m *Manager) CheckMuxInvariants() error {
	// Exclusive, not shared: requiredSpare may service a deferred rescan
	// (writing lm.maxReq), so this "read-only" check is a writer to the
	// incremental caches it validates.
	m.mu.Lock()
	defer m.mu.Unlock()
	for l := range m.plan.mux {
		lm := &m.plan.mux[l]
		if !lm.reqDirty {
			var max float64
			for i := range lm.entries {
				if lm.entries[i].req > max {
					max = lm.entries[i].req
				}
			}
			if math.Abs(max-lm.maxReq) > 1e-9 {
				return fmt.Errorf("core: link %d cached max requirement %g, recomputed %g", l, lm.maxReq, max)
			}
		}
		var held float64
		for _, bw := range lm.claims {
			held += bw
		}
		if math.Abs(held-lm.claimed) > 1e-9 {
			return fmt.Errorf("core: link %d claimed %g, its claims hold %g", l, lm.claimed, held)
		}
		// The pool covers the requirement and what is claimed, up to the
		// headroom reconfigureLinks caps it at on a full link.
		lid := topology.LinkID(l)
		need := math.Min(math.Max(lm.requiredSpare(), lm.claimed), m.plan.net.Capacity(lid)-m.plan.net.Dedicated(lid))
		if spare := m.plan.net.Spare(lid); spare+1e-9 < need {
			return fmt.Errorf("core: link %d spare %g below requirement %g", l, spare, need)
		}
		n := len(lm.entries)
		if len(lm.pi) != n*lm.stride || n > 64*lm.stride {
			return fmt.Errorf("core: link %d Π matrix holds %d words at stride %d for %d entries", l, len(lm.pi), lm.stride, n)
		}
		for ei := range lm.entries {
			e := &lm.entries[ei]
			id := e.id
			// Entries must be unique per channel (find returns the first).
			if lm.find(id) != ei {
				return fmt.Errorf("core: link %d has duplicate entries for channel %d", l, id)
			}
			if lm.piHas(ei, ei) {
				return fmt.Errorf("core: link %d entry %d counts itself in Π", l, id)
			}
			want := e.bw
			members := 0
			for pi := range lm.entries {
				if !lm.piHas(ei, pi) {
					continue
				}
				members++
				pe := &lm.entries[pi]
				want += pe.bw
				// The ν-ordering rule applies between connections that both
				// have primaries; a primary-less connection (mid-recovery
				// rejoin) is counted conservatively from both sides.
				if m.plan.thr.nus[pe.cls] > m.plan.thr.nus[e.cls] && pe.sig != e.sig &&
					m.plan.sigRow(pe.sig)[0] != 0 && m.plan.sigRow(e.sig)[0] != 0 {
					return fmt.Errorf("core: link %d entry %d counts peer %d with larger ν", l, id, pe.id)
				}
			}
			// A bit in a column no entry occupies would be inherited by the
			// next backup appended there.
			if stray := lm.piCount(ei) - members; stray != 0 {
				return fmt.Errorf("core: link %d entry %d has %d Π bits beyond column %d", l, id, stray, n-1)
			}
			if math.Abs(want-e.req) > 1e-6 {
				return fmt.Errorf("core: link %d entry %d req drift: stored %g recomputed %g", l, id, e.req, want)
			}
		}
		if err := m.plan.checkCols(lm); err != nil {
			return fmt.Errorf("core: link %d %w", l, err)
		}
	}
	return m.plan.checkSig()
}

// checkCols rebuilds lm's node columns and primary-less set from its
// entries' signature rows, bit by bit, and reports the first difference.
func (p *NetworkPlan) checkCols(lm *linkMux) error {
	nc, s := p.sigNodes+1, lm.stride
	if len(lm.cols) != nc*s {
		return fmt.Errorf("holds %d column words for %d columns at stride %d", len(lm.cols), nc, s)
	}
	want := make([]uint64, len(lm.cols))
	for i := range lm.entries {
		row := p.sigRow(lm.entries[i].sig)
		if row[0] == 0 {
			want[p.sigNodes*s+i>>6] |= 1 << (uint(i) & 63)
			continue
		}
		for v := 0; v < p.sigNodes; v++ {
			if row[1+v>>6] == 0 {
				v |= 63 // no node of this word
			} else if row[1+v>>6]&(1<<(uint(v)&63)) != 0 {
				want[v*s+i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	for w := range want {
		if got := lm.cols[w]; got != want[w] {
			return fmt.Errorf("node column %d word %d = %#x, rebuilt from the signature rows %#x (column %d is the primary-less set)",
				w/s, w%s, got, want[w], p.sigNodes)
		}
	}
	return nil
}
