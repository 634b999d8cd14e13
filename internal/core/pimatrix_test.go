package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/rtcl/bcp/internal/reliability"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// piIDs decodes row i of the link's Π matrix into channel ids, in slot
// (column) order. Test-only: nothing in the engine reads Π by id.
func (lm *linkMux) piIDs(i int) []rtchan.ChannelID {
	var ids []rtchan.ChannelID
	for j := range lm.entries {
		if lm.piHas(i, j) {
			ids = append(ids, lm.entries[j].id)
		}
	}
	return ids
}

// piModel is the reference the bit matrix is checked against: Π as a set of
// channel ids per channel per link — the representation the matrix replaced —
// edited by the textbook rules with S from the reference formula.
type piModel struct {
	lambda float64
	links  []map[rtchan.ChannelID]*piModelEntry
}

type piModelEntry struct {
	conn *DConnection
	bw   float64
	nu   float64
	pi   map[rtchan.ChannelID]struct{}
}

// counts reports whether a counts b in Π(a): same connection always, else
// ν(b) <= ν(a) and S >= ν(a) (§3.2 with the degree restriction).
func (pm *piModel) counts(a, b *piModelEntry) bool {
	if a.conn.ID == b.conn.ID {
		return true
	}
	pa, pb := a.conn.Primary.Path, b.conn.Primary.Path
	s := reliability.SimultaneousActivation(pm.lambda, pa.NumComponents(), pb.NumComponents(), sharedComponents(pa, pb))
	return b.nu <= a.nu && s >= a.nu
}

func (pm *piModel) add(l topology.LinkID, id rtchan.ChannelID, conn *DConnection, bw float64, alpha int) {
	n := &piModelEntry{conn: conn, bw: bw, nu: reliability.NuForDegree(pm.lambda, alpha), pi: map[rtchan.ChannelID]struct{}{}}
	for eid, e := range pm.links[l] {
		if pm.counts(e, n) {
			e.pi[id] = struct{}{}
		}
		if pm.counts(n, e) {
			n.pi[eid] = struct{}{}
		}
	}
	pm.links[l][id] = n
}

func (pm *piModel) remove(l topology.LinkID, id rtchan.ChannelID) {
	delete(pm.links[l], id)
	for _, e := range pm.links[l] {
		delete(e.pi, id)
	}
}

// rebuild re-derives every Π set of link l from scratch.
func (pm *piModel) rebuild(l topology.LinkID) {
	for _, e := range pm.links[l] {
		clear(e.pi)
	}
	for aid, a := range pm.links[l] {
		for bid, b := range pm.links[l] {
			if aid != bid && pm.counts(a, b) {
				a.pi[bid] = struct{}{}
			}
		}
	}
}

// requireMatrixMatchesModel checks, per link, that the entries are the
// model's channels, that Π decoded from the matrix is the model's set, and
// that req is exactly bw + Σ_Π bw (bandwidths are integers, so the float sums
// are exact in any order).
func requireMatrixMatchesModel(t *testing.T, ctx string, m *Manager, pm *piModel) {
	t.Helper()
	for l := range pm.links {
		lm := &m.plan.mux[l]
		if len(lm.entries) != len(pm.links[l]) {
			t.Fatalf("%s: link %d has %d entries, model %d", ctx, l, len(lm.entries), len(pm.links[l]))
		}
		for i := range lm.entries {
			e := &lm.entries[i]
			me := pm.links[l][e.id]
			if me == nil {
				t.Fatalf("%s: link %d entry %d (chan %d) absent from model", ctx, l, i, e.id)
			}
			got := lm.piIDs(i)
			if len(got) != len(me.pi) || lm.piCount(i) != len(me.pi) {
				t.Fatalf("%s: link %d chan %d |Π| = %d (popcount %d), model %d",
					ctx, l, e.id, len(got), lm.piCount(i), len(me.pi))
			}
			want := me.bw
			for _, id := range got {
				if _, ok := me.pi[id]; !ok {
					t.Fatalf("%s: link %d chan %d counts %d, model does not", ctx, l, e.id, id)
				}
				want += pm.links[l][id].bw
			}
			if e.req != want {
				t.Fatalf("%s: link %d chan %d req %g, bw+ΣΠ = %g", ctx, l, e.id, e.req, want)
			}
		}
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// TestPiMatrixMatchesSetModel drives seeded random add / remove / failed-add
// rollback / rebuild sequences over a two-link line 0→1→2 whose every backup
// lands on one or both links, so each link's entry count sweeps up past 128,
// down below 64 and back: the matrix and the node columns restride on the
// way up and keep their wider words clean on the way down (every step ends
// in CheckMuxInvariants, which rebuilds the columns from the signature
// rows). Primary and backup of a connection use the same path
// (EstablishOnPaths does not enforce disjointness), which makes the three
// endpoint pairs overlap in 1, 3 or 5 components — with degrees 0..6 that
// yields every kind of pair: mutual, one-sided and multiplexed. The
// "-oneclass" histories give every backup degree 4, so the plan registers
// one class and unwire reads its columns from rows idx and last alone; at
// that degree only the 5-component overlap (and a connection's own pair)
// counts, so each link holds mutual and multiplexed pairs side by side.
func TestPiMatrixMatchesSetModel(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, oneClass := range []bool{false, true} {
		for seed := int64(1); seed <= seeds; seed++ {
			name := fmt.Sprintf("seed%d", seed)
			if oneClass {
				name += "-oneclass"
			}
			t.Run(name, func(t *testing.T) { piMatrixHistory(t, seed, oneClass) })
		}
	}
}

// piMatrixHistory is one TestPiMatrixMatchesSetModel history: degrees 0..6,
// or 4 alone when oneClass is set.
func piMatrixHistory(t *testing.T, seed int64, oneClass bool) {
	rng := rand.New(rand.NewSource(seed))
	degree := func() int {
		if oneClass {
			return 4
		}
		return rng.Intn(7)
	}
	g := topology.NewGraph(3)
	// The second link is the tight one: an oversized request that fits
	// link 0 overflows link 1, which rolls back a wired prefix.
	l0, _ := g.AddLink(0, 1, 1e6)
	l1, _ := g.AddLink(1, 2, 1e4)
	paths := []topology.Path{
		linkPathT(t, g, l0),
		linkPathT(t, g, l1),
		linkPathT(t, g, l0, l1),
	}
	cfg := DefaultConfig()
	m := NewManager(g, cfg)
	pm := &piModel{lambda: cfg.Lambda, links: []map[rtchan.ChannelID]*piModelEntry{{}, {}}}
	var live []rtchan.ConnID

	add := func(ctx string) {
		path := paths[rng.Intn(len(paths))]
		backups := []topology.Path{path, path}[:1+rng.Intn(2)]
		degrees := []int{degree(), degree()}[:len(backups)]
		spec := rtchan.TrafficSpec{Bandwidth: float64(1 + rng.Intn(3))}
		conn, err := m.EstablishOnPaths(spec, path, backups, degrees)
		if err != nil {
			t.Fatalf("%s: add: %v", ctx, err)
		}
		live = append(live, conn.ID)
		for i, b := range conn.Backups {
			for _, l := range b.Path.Links() {
				pm.add(l, b.ID, conn, spec.Bandwidth, degrees[i])
			}
		}
	}
	remove := func(ctx string) {
		i := rng.Intn(len(live))
		conn := m.Connection(live[i])
		for _, b := range conn.Backups {
			for _, l := range b.Path.Links() {
				pm.remove(l, b.ID)
			}
		}
		if err := m.Teardown(conn.ID); err != nil {
			t.Fatalf("%s: remove: %v", ctx, err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	// failedAdd requests most of a link's free bandwidth: the primary
	// fits, the backup's spare on top of it cannot. Over 0→2 the
	// backup is wired on link 0 before link 1 refuses it.
	failedAdd := func(ctx string) {
		path := paths[rng.Intn(len(paths))]
		free := math.Inf(1)
		for _, l := range path.Links() {
			free = math.Min(free, m.plan.net.Free(l))
		}
		spec := rtchan.TrafficSpec{Bandwidth: math.Floor(0.6 * free)}
		if _, err := m.EstablishOnPaths(spec, path, []topology.Path{path}, []int{degree()}); err == nil {
			t.Fatalf("%s: oversized backup admitted", ctx)
		}
	}

	lo, hi := len(pm.links[0]), len(pm.links[0])
	step := 0
	for phase, target := range []int{140, 40, 140, 0} {
		for len(pm.links[0]) != target || (target == 0 && len(live) > 0) {
			ctx := fmt.Sprintf("phase %d step %d", phase, step)
			step++
			n := len(pm.links[0])
			grow := n < target
			if rng.Intn(5) == 0 {
				grow = !grow // wander against the trend
			}
			switch r := rng.Intn(20); {
			case r == 0:
				failedAdd(ctx)
			case r == 1:
				l := topology.LinkID(rng.Intn(2))
				pm.rebuild(l)
				m.recomputeLinkMux(l)
				m.settle(l)
			case grow || len(live) == 0:
				add(ctx)
			default:
				remove(ctx)
			}
			requireMatrixMatchesModel(t, ctx, m, pm)
			lo, hi = min(lo, len(pm.links[0])), max(hi, len(pm.links[0]))
		}
		switch phase {
		case 0, 2:
			if s := m.plan.mux[l0].stride; hi <= 128 || s < 3 {
				t.Fatalf("phase %d: link 0 peaked at %d entries, stride %d", phase, hi, s)
			}
			hi = 0
		case 1:
			if lo >= 64 {
				t.Fatalf("phase 1: link 0 bottomed at %d entries", lo)
			}
		}
	}
	for l := range m.plan.mux {
		if n := len(m.plan.mux[l].entries); n != 0 {
			t.Fatalf("link %d left with %d entries", l, n)
		}
	}
	if n := len(m.plan.thr.nus); oneClass != (n == 1) {
		t.Fatalf("the history registered %d degree classes", n)
	}
}

// TestCheckMuxInvariantsCatchesOneSidedPi clears one Π bit between two
// backups of one class and lowers the requirement to match, so that only the
// clause unwire rests on — one class decides a pair the same both ways — can
// object.
func TestCheckMuxInvariantsCatchesOneSidedPi(t *testing.T) {
	g := topology.NewGraph(3)
	l0, _ := g.AddLink(0, 1, 1e6)
	l1, _ := g.AddLink(1, 2, 1e6)
	path := linkPathT(t, g, l0, l1)
	m := NewManager(g, DefaultConfig())
	for range 2 {
		// Primaries on one path share all five components: at degree 3 each
		// backup counts the other.
		if _, err := m.EstablishOnPaths(rtchan.TrafficSpec{Bandwidth: 1}, path, []topology.Path{path}, []int{3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	lm := &m.plan.mux[l0]
	if len(lm.entries) != 2 || !lm.piHas(0, 1) || !lm.piHas(1, 0) {
		t.Fatalf("link %d: %d entries, Π rows %v and %v: want two that count each other", l0, len(lm.entries), lm.piIDs(0), lm.piIDs(1))
	}
	lm.pi[0] &^= 1 << 1
	lm.entries[0].req -= lm.entries[1].bw
	err := m.CheckMuxInvariants()
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("CheckMuxInvariants = %v after a one-sided bit, want the disagreement", err)
	}
}
