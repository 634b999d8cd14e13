package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Shared by the randomized equivalence tests (establishment variants,
// ClaimBatch, coalesced reconfiguration): a tight random topology, a random
// request list, and the comparison of two managers that must be identical.

// establishReq is the arguments of one Manager.Establish call.
type establishReq struct {
	Src, Dst topology.NodeID
	Spec     rtchan.TrafficSpec
	Degrees  []int
}

func defaultBatchSpec(rng *rand.Rand) rtchan.TrafficSpec {
	spec := rtchan.DefaultSpec()
	if rng.Intn(4) == 0 {
		spec.Bandwidth = 1 + float64(rng.Intn(3))
	}
	return spec
}

// batchTopology builds a deliberately tight network so a good fraction of
// requests are rejected: what a rejection leaves behind is under test too.
func batchTopology(rng *rand.Rand, seed int64) *topology.Graph {
	switch rng.Intn(3) {
	case 0:
		return topology.NewTorus(4+rng.Intn(3), 4+rng.Intn(3), 4+float64(rng.Intn(4)))
	case 1:
		return topology.NewMesh(4+rng.Intn(3), 4+rng.Intn(3), 5+float64(rng.Intn(4)))
	default:
		return topology.NewRandom(24+rng.Intn(12), 3.5, 5, seed)
	}
}

func batchRequests(rng *rand.Rand, g *topology.Graph, n int, spec func(*rand.Rand) rtchan.TrafficSpec) []establishReq {
	reqs := make([]establishReq, 0, n)
	nodes := g.NumNodes()
	for len(reqs) < n {
		s := topology.NodeID(rng.Intn(nodes))
		d := topology.NodeID(rng.Intn(nodes))
		if s == d && rng.Intn(8) != 0 {
			continue // keep a few src==dst requests: those rejections count too
		}
		degrees := make([]int, rng.Intn(3))
		for j := range degrees {
			degrees[j] = 1 + rng.Intn(6)
		}
		reqs = append(reqs, establishReq{Src: s, Dst: d, Spec: spec(rng), Degrees: degrees})
	}
	return reqs
}

// requireSameManagers fails unless the two managers are bit-identical in
// every externally observable and every multiplexing-internal respect.
func requireSameManagers(t *testing.T, ctx string, ms, mb *Manager) {
	t.Helper()
	if ms.nextConn != mb.nextConn {
		t.Fatalf("%s: nextConn %d vs %d", ctx, ms.nextConn, mb.nextConn)
	}
	seq, bat := ms.Connections(), mb.Connections()
	if len(seq) != len(bat) {
		t.Fatalf("%s: conn count %d vs %d", ctx, len(seq), len(bat))
	}
	for i, cs := range seq {
		cb, id := bat[i], cs.ID
		if cb.ID != id {
			t.Fatalf("%s: Connections()[%d] = %d vs %d", ctx, i, id, cb.ID)
		}
		if cs.Src != cb.Src || cs.Dst != cb.Dst {
			t.Fatalf("%s: conn %d endpoints differ", ctx, id)
		}
		requireSameChannel(t, ctx, cs.Primary, cb.Primary)
		if len(cs.Backups) != len(cb.Backups) {
			t.Fatalf("%s: conn %d backups %d vs %d", ctx, id, len(cs.Backups), len(cb.Backups))
		}
		for i := range cs.Backups {
			requireSameChannel(t, ctx, cs.Backups[i], cb.Backups[i])
			if cs.Degrees[i] != cb.Degrees[i] {
				t.Fatalf("%s: conn %d degree[%d] %d vs %d", ctx, id, i, cs.Degrees[i], cb.Degrees[i])
			}
		}
	}
	g := ms.Graph()
	for l := 0; l < g.NumLinks(); l++ {
		ll := topology.LinkID(l)
		if ds, db := ms.plan.net.Dedicated(ll), mb.plan.net.Dedicated(ll); math.Abs(ds-db) > 1e-9 {
			t.Fatalf("%s: link %d dedicated %g vs %g", ctx, l, ds, db)
		}
		if ss, sb := ms.plan.net.Spare(ll), mb.plan.net.Spare(ll); math.Abs(ss-sb) > 1e-9 {
			t.Fatalf("%s: link %d spare %g vs %g", ctx, l, ss, sb)
		}
		lms, lmb := &ms.plan.mux[l], &mb.plan.mux[l]
		if len(lms.entries) != len(lmb.entries) {
			t.Fatalf("%s: link %d entry count %d vs %d", ctx, l, len(lms.entries), len(lmb.entries))
		}
		for i := range lms.entries {
			es, eb := &lms.entries[i], &lmb.entries[i]
			if nus, nub := ms.plan.thr.nus[es.cls], mb.plan.thr.nus[eb.cls]; es.id != eb.id || nus != nub {
				t.Fatalf("%s: link %d entry %d: chan %d/ν%g vs chan %d/ν%g",
					ctx, l, i, es.id, nus, eb.id, nub)
			}
			if math.Abs(es.req-eb.req) > 1e-9 {
				t.Fatalf("%s: link %d entry %d req %g vs %g", ctx, l, i, es.req, eb.req)
			}
			// Bit-identity: Π decoded in slot order must match member by member.
			ps, pb := lms.piIDs(i), lmb.piIDs(i)
			if len(ps) != len(pb) {
				t.Fatalf("%s: link %d entry %d Π size %d vs %d", ctx, l, i, len(ps), len(pb))
			}
			for j := range ps {
				if ps[j] != pb[j] {
					t.Fatalf("%s: link %d entry %d Π[%d] = %d vs %d", ctx, l, i, j, ps[j], pb[j])
				}
			}
		}
		if rs, rb := lms.requiredSpare(), lmb.requiredSpare(); math.Abs(rs-rb) > 1e-9 {
			t.Fatalf("%s: link %d required spare %g vs %g", ctx, l, rs, rb)
		}
	}
}

func requireSameChannel(t *testing.T, ctx string, a, b *rtchan.Channel) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: channel presence differs", ctx)
	}
	if a == nil {
		return
	}
	if a.ID != b.ID {
		t.Fatalf("%s: channel id %d vs %d", ctx, a.ID, b.ID)
	}
	la, lb := a.Path.Links(), b.Path.Links()
	if len(la) != len(lb) {
		t.Fatalf("%s: channel %d path length %d vs %d", ctx, a.ID, len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("%s: channel %d link[%d] %d vs %d", ctx, a.ID, i, la[i], lb[i])
		}
	}
}

// recoveryOrder is when recoverByClaims gives back what a failure killed.
type recoveryOrder int

const (
	// deadFirst tears the dead primaries down before the activations.
	deadFirst recoveryOrder = iota
	// activateFirst is bcpd's order: every winner is activated first, and
	// the dead primaries are torn down after, as at rejoin expiry.
	activateFirst
)

// recoverByClaims recovers live state from failure f through the protocol
// plane's mutators alone, in connection order, as the daemons would once
// every report has arrived. First each connection whose primary f disables
// claims its first backup f spares whose ClaimBatch succeeds, releasing a
// partial claim. Then what f killed gives its dedicated bandwidth back: a
// connection with a failed end node is torn down, and each disabled primary;
// the winners are activated before that (activateFirst) or after it
// (deadFirst). Last, each disabled backup is torn down, and a connection the
// failure touched that is left without a primary. It returns the activated
// backups in connection order and the number of write transactions it made.
func recoverByClaims(t testing.TB, m *Manager, f Failure, order recoveryOrder) (winners []*rtchan.Channel, txns int) {
	t.Helper()
	type touched struct {
		conn   *DConnection
		excl   bool
		prim   *rtchan.Channel // the disabled primary
		win    *rtchan.Channel
		failed []rtchan.ChannelID // the disabled backups
	}
	var steps []touched
	for _, c := range m.Connections() {
		s := touched{conn: c, excl: f.NodeFailed(c.Src) || f.NodeFailed(c.Dst)}
		if c.Primary != nil && f.HitsPath(c.Primary.Path) {
			s.prim = c.Primary
		}
		for _, b := range c.Backups {
			switch {
			case f.HitsPath(b.Path):
				s.failed = append(s.failed, b.ID)
			case s.prim != nil && !s.excl && s.win == nil:
				links := b.Path.Links()
				i, ok := m.ClaimBatch(links, b.ID, b.Bandwidth())
				txns++
				if ok {
					s.win = b
				} else if i > 0 {
					m.ReleaseClaimBatch(links[:i], b.ID)
					txns++
				}
			}
		}
		if s.excl || s.prim != nil || len(s.failed) > 0 {
			steps = append(steps, s)
		}
	}
	activate := func(s touched) {
		if s.win == nil {
			return
		}
		if err := m.ActivateClaimed(s.conn.ID, s.win); err != nil {
			t.Fatalf("activation of backup %d of connection %d: %v", s.win.ID, s.conn.ID, err)
		}
		winners = append(winners, s.win)
		txns++
	}
	if order == activateFirst {
		for _, s := range steps {
			activate(s)
		}
	}
	for _, s := range steps {
		var err error
		switch {
		case s.excl:
			err = m.Teardown(s.conn.ID)
		case s.prim != nil:
			err = m.TeardownChannel(s.conn.ID, s.prim.ID)
		default:
			continue
		}
		if err != nil {
			t.Fatalf("teardown on connection %d: %v", s.conn.ID, err)
		}
		txns++
	}
	for _, s := range steps {
		id := s.conn.ID
		if s.excl {
			continue
		}
		if order == deadFirst {
			activate(s)
		}
		for _, ch := range s.failed {
			if err := m.TeardownChannel(id, ch); err != nil {
				t.Fatalf("teardown of channel %d of connection %d: %v", ch, id, err)
			}
			txns++
		}
		if c := m.Connection(id); c != nil && c.Primary == nil {
			if err := m.Teardown(id); err != nil {
				t.Fatalf("teardown of connection %d: %v", id, err)
			}
			txns++
		}
	}
	return winners, txns
}

// checkRecovered fails unless m is in the state a recovery from f leaves: no
// connection ends at a failed node or lacks a primary, no listed channel
// crosses a failed component, the reservation network holds exactly the
// channels the connections list (an old primary was torn down, not
// orphaned), no claim is outstanding, and the invariants hold.
func checkRecovered(t testing.TB, ctx string, m *Manager, f Failure) {
	t.Helper()
	listed := 0
	for _, c := range m.Connections() {
		if f.NodeFailed(c.Src) || f.NodeFailed(c.Dst) {
			t.Fatalf("%s: connection %d survives a failed end node", ctx, c.ID)
		}
		if c.Primary == nil {
			t.Fatalf("%s: connection %d left without a primary", ctx, c.ID)
		}
		for _, ch := range channelsOf(c) {
			listed++
			if f.HitsPath(ch.Path) {
				t.Fatalf("%s: channel %d of connection %d survives on a failed component", ctx, ch.ID, c.ID)
			}
		}
	}
	if n := m.plan.net.NumChannels(); n != listed {
		t.Fatalf("%s: network holds %d channels, connections list %d", ctx, n, listed)
	}
	if n := m.OutstandingClaims(); n != 0 {
		t.Fatalf("%s: %d claims outstanding", ctx, n)
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if err := m.plan.net.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}
