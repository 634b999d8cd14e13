package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// refTrial is the failure trial as it was before trials read a snapshot: the
// affected channels come from rtchan's link index and node lists, are
// deduplicated by ChannelID and grouped by ConnID, and each backup's links
// are reached through DConnection.Backups and its Path. It keeps its state in
// maps of its own, so it shares nothing with the walk under test but the
// plan. pools, when non-nil, replaces each link's available spare. It returns
// the statistics, the activated backups in activation order and the disabled
// channels.
func refTrial(p *NetworkPlan, f Failure, order ActivationOrder, rng *rand.Rand, pools []float64) (RecoveryStats, []*rtchan.Channel, map[rtchan.ChannelID]bool) {
	var stats RecoveryStats
	hit := map[rtchan.ChannelID]bool{}
	prim := map[rtchan.ConnID]bool{}
	bkup := map[rtchan.ConnID]int{}
	var touched []rtchan.ConnID
	add := func(ch *rtchan.Channel) {
		if hit[ch.ID] {
			return
		}
		hit[ch.ID] = true
		if !prim[ch.Conn] && bkup[ch.Conn] == 0 {
			touched = append(touched, ch.Conn)
		}
		if ch.Role == rtchan.RolePrimary {
			prim[ch.Conn] = true
		} else {
			bkup[ch.Conn]++
		}
	}
	for _, l := range f.links {
		for _, ch := range p.net.ChannelsOnLink(l) {
			add(ch)
		}
	}
	for _, n := range f.nodes {
		for _, id := range p.net.AppendChannelsAtNode(nil, n) {
			add(p.net.Channel(id))
		}
	}
	addDegree := func(alpha, failed, recovered int) {
		if stats.ByDegree == nil {
			stats.ByDegree = map[int]DegreeStats{}
		}
		d := stats.ByDegree[alpha]
		d.FailedPrimaries += failed
		d.FastRecovered += recovered
		stats.ByDegree[alpha] = d
	}
	var needs []*DConnection
	for _, id := range touched {
		conn := p.conns.Get(id)
		if conn == nil {
			continue
		}
		if f.NodeFailed(conn.Src) || f.NodeFailed(conn.Dst) {
			stats.ExcludedConns++
			continue
		}
		stats.FailedBackups += bkup[id]
		if prim[id] {
			stats.FailedPrimaries++
			addDegree(firstDegree(conn), 1, 0)
			needs = append(needs, conn)
		}
	}
	slices.SortFunc(needs, func(a, b *DConnection) int { return int(a.ID) - int(b.ID) })
	switch order {
	case OrderByPriority:
		slices.SortStableFunc(needs, func(a, b *DConnection) int { return firstDegree(a) - firstDegree(b) })
	case OrderRandom:
		if rng != nil {
			rng.Shuffle(len(needs), func(i, j int) { needs[i], needs[j] = needs[j], needs[i] })
		}
	}
	claimed := map[topology.LinkID]float64{}
	var winners []*rtchan.Channel
	for _, conn := range needs {
		bw := conn.Spec.Bandwidth
		healthy, won := false, false
		for _, b := range conn.Backups {
			if hit[b.ID] {
				continue
			}
			healthy = true
			ok := true
			for _, l := range b.Path.Links() {
				pool := p.available(topology.LinkID(l))
				if pools != nil {
					pool = pools[l]
				}
				if pool-claimed[l] < bw-1e-9 {
					ok = false
					break
				}
			}
			if ok {
				for _, l := range b.Path.Links() {
					claimed[l] += bw
				}
				winners = append(winners, b)
				won = true
				break
			}
		}
		switch {
		case won:
			stats.FastRecovered++
			addDegree(firstDegree(conn), 0, 1)
		case healthy:
			stats.MuxFailed++
		default:
			stats.BackupDead++
		}
	}
	return stats, winners, hit
}

// channelIDs lists the channels' ids, for comparisons that print.
func channelIDs(chs []*rtchan.Channel) []rtchan.ChannelID {
	ids := make([]rtchan.ChannelID, len(chs))
	for i, ch := range chs {
		ids[i] = ch.ID
	}
	return ids
}

// denseConns lists p's connections in the order a snapshot numbers them:
// dense connection index i is the i-th.
func denseConns(p *NetworkPlan) []*DConnection {
	var out []*DConnection
	p.conns.Each(func(_ rtchan.ConnID, c *DConnection) { out = append(out, c) })
	return out
}

// primaryStamped reports whether the scratch's last trial disabled dense
// connection c's primary.
func primaryStamped(t *trialScratch, c int32) bool {
	m := &t.conn[c]
	return m.gen == t.gen && m.prim
}

// stampedIDs returns the channels the scratch's last trial stamped, read
// back through primaryStamped and backupHit over every connection of its
// snapshot. The channels come from the plan, which must not have moved since
// the trial.
func stampedIDs(p *NetworkPlan, t *trialScratch) map[rtchan.ChannelID]bool {
	s := &t.snap
	ids := map[rtchan.ChannelID]bool{}
	for c, conn := range denseConns(p) {
		rec := &s.conns[c]
		if primaryStamped(t, int32(c)) {
			ids[conn.Primary.ID] = true
		}
		for b := rec.bk0; b < rec.bk1; b++ {
			if t.backupHit(b) {
				ids[conn.Backups[b-rec.bk0].ID] = true
			}
		}
	}
	return ids
}

// checkSnapshot holds every link's ref run to the rule node discovery reads
// it by: the first endN refs are channels whose path ends at the link's
// head, and no later ref is. The paths come from the plan, which must not
// have moved since the snapshot was copied.
func checkSnapshot(tb testing.TB, p *NetworkPlan, s *trialSnapshot) {
	tb.Helper()
	g := p.net.Graph()
	conns := denseConns(p)
	for _, lk := range g.Links() {
		for i, r := range s.onLink(lk.ID) {
			conn := conns[r.conn]
			path := conn.Primary.Path
			if r.bk >= 0 {
				path = conn.Backups[r.bk-s.conns[r.conn].bk0].Path
			}
			if ends, prefix := path.Destination() == lk.To, i < int(s.runs[lk.ID].endN); ends != prefix {
				tb.Fatalf("link %d (%d->%d) ref %d of %d, %d ending: path %v ends at its head %v",
					lk.ID, lk.From, lk.To, i, len(s.onLink(lk.ID)), s.runs[lk.ID].endN, path, ends)
			}
		}
	}
}

// referenceChecker compares every trial entry point with refTrial on one
// manager. Its views and scratch persist across calls, so a check after a
// write also checks that each holder saw the write.
type referenceChecker struct {
	m       *Manager
	view    *TrialView
	pools   []float64
	pooled  *TrialView
	checks  int
	checked uint64 // 1 + the epoch of the last view snapshot checkSnapshot read
}

func newReferenceChecker(m *Manager) *referenceChecker {
	pools := make([]float64, m.Graph().NumLinks())
	for l := range pools {
		pools[l] = float64(l%4) + 0.5 // uneven pools, so activations contend
	}
	return &referenceChecker{m: m, view: m.NewTrialView(), pools: pools, pooled: m.NewTrialViewWithPools(pools)}
}

// check holds one failure under one order against the reference: the view's
// statistics and stamped channels (and each snapshot it copies, once), and
// the pools view. seed seeds
// OrderRandom's rng identically on both sides.
func (c *referenceChecker) check(t testing.TB, f Failure, order ActivationOrder, seed int64) {
	t.Helper()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
	c.m.mu.RLock()
	want, _, wantHit := refTrial(&c.m.plan, f, order, rng(), nil)
	wantPooled, _, _ := refTrial(&c.m.plan, f, order, rng(), c.pools)
	c.m.mu.RUnlock()
	ctx := fmt.Sprintf("links %v nodes %v order %d seed %d", f.links, f.nodes, order, seed)
	if got := c.view.Trial(f, order, rng()); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: view %+v, reference %+v", ctx, got, want)
	}
	v := &c.view.scratch
	c.m.mu.RLock()
	stamped := stampedIDs(&c.m.plan, v)
	if c.checked != v.snap.epoch+1 {
		checkSnapshot(t, &c.m.plan, &v.snap)
		c.checked = v.snap.epoch + 1
	}
	c.m.mu.RUnlock()
	if !maps.Equal(stamped, wantHit) {
		t.Fatalf("%s: stamped %v, reference disabled %v", ctx, stamped, wantHit)
	}
	if got := c.pooled.Trial(f, order, rng()); !reflect.DeepEqual(got, wantPooled) {
		t.Fatalf("%s: pools view %+v, reference %+v", ctx, got, wantPooled)
	}
	c.checks++
}

// recoverAgainstReference recovers m from f through recoverByClaims and
// holds it to refTrial run just before it in connection order: the same
// backups activated, in connection order, each now its connection's
// primary, and the multiplexing invariants holding. It returns the activated
// backups.
func recoverAgainstReference(t testing.TB, m *Manager, f Failure) []*rtchan.Channel {
	t.Helper()
	m.mu.RLock()
	_, want, _ := refTrial(&m.plan, f, OrderByConn, nil, nil)
	m.mu.RUnlock()
	got, _ := recoverByClaims(t, m, f, deadFirst)
	if !slices.Equal(channelIDs(got), channelIDs(want)) {
		t.Fatalf("recovery from links %v nodes %v: activated %v, reference %v", f.links, f.nodes, channelIDs(got), channelIDs(want))
	}
	for _, w := range got {
		if conn := m.Connection(w.Conn); conn == nil || conn.Primary != w {
			t.Fatalf("recovery from links %v nodes %v: backup %d is not its connection's primary", f.links, f.nodes, w.ID)
		}
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatalf("recovery from links %v nodes %v: %v", f.links, f.nodes, err)
	}
	return got
}

// allPairs establishes one connection per ordered node pair, request i with
// the backup degrees degrees(i); rejections are part of the load.
func allPairs(g *topology.Graph, degrees func(i int) []int) *Manager {
	m := NewManager(g, DefaultConfig())
	i := 0
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s != d {
				_, _ = m.Establish(topology.NodeID(s), topology.NodeID(d), rtchan.DefaultSpec(), degrees(i))
				i++
			}
		}
	}
	return m
}

// TestTrialMatchesReferenceWalk holds the snapshot walk to the pointer walk
// it replaced, on the evaluation's loads: Table 1's torus at α=3, Table 2's
// mixed degrees (request i at {1,3,5,6}[i%4], as workload.Mixed assigns them),
// the 8x8 mesh, and two backups per connection. Every single link and node,
// 70 double nodes and 20 failures of more than two components of a kind run
// under all three orders, OrderRandom with identical seeds on both sides,
// through a view and a pools view. Then five recoveries through the claim
// API are held to the reference run before each, 50 connections are torn
// down, and the single failures run again through the same, now stale,
// holders.
func TestTrialMatchesReferenceWalk(t *testing.T) {
	mixed := []int{1, 3, 5, 6}
	for _, tc := range []struct {
		name    string
		g       *topology.Graph
		degrees func(i int) []int
	}{
		{"table1-torus", topology.NewTorus(8, 8, 200), func(int) []int { return []int{3} }},
		{"table2-mixed", topology.NewTorus(8, 8, 200), func(i int) []int { return []int{mixed[i%4]} }},
		{"mesh", topology.NewMesh(8, 8, 200), func(int) []int { return []int{3} }},
		{"two-backups", topology.NewTorus(8, 8, 200), func(int) []int { return []int{3, 3} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := allPairs(tc.g, tc.degrees)
			g := m.Graph()
			c := newReferenceChecker(m)
			rng := rand.New(rand.NewSource(29))
			node := func() topology.NodeID { return topology.NodeID(rng.Intn(g.NumNodes())) }
			link := func() topology.LinkID { return topology.LinkID(rng.Intn(g.NumLinks())) }
			var single, failures []Failure
			for _, l := range g.Links() {
				single = append(single, SingleLink(l.ID))
			}
			for v := 0; v < g.NumNodes(); v++ {
				single = append(single, SingleNode(topology.NodeID(v)))
			}
			failures = append(failures, single...)
			for i := 0; i < 70; i++ {
				failures = append(failures, DoubleNode(node(), node()))
			}
			for i := 0; i < 20; i++ {
				failures = append(failures, NewFailure(
					[]topology.LinkID{link(), link(), link()},
					[]topology.NodeID{node(), node(), node()}))
			}
			orders := []ActivationOrder{OrderByConn, OrderByPriority, OrderRandom}
			for i, f := range failures {
				for _, order := range orders {
					c.check(t, f, order, int64(i))
				}
			}
			recoverAgainstReference(t, m, SingleLink(link()))
			recoverAgainstReference(t, m, SingleNode(node()))
			recoverAgainstReference(t, m, DoubleNode(node(), node()))
			recoverAgainstReference(t, m, NewFailure([]topology.LinkID{link(), link(), link()}, []topology.NodeID{node(), node(), node()}))
			recoverAgainstReference(t, m, SingleLink(link()))
			conns := m.Connections()
			for _, i := range rng.Perm(len(conns))[:50] {
				if err := m.Teardown(conns[i].ID); err != nil {
					t.Fatal(err)
				}
			}
			for i, f := range single {
				for _, order := range orders {
					c.check(t, f, order, int64(i))
				}
			}
			t.Logf("%d connections, %d checks", m.NumConnections(), c.checks)
		})
	}
}

// FuzzTrialMatchesReference holds the snapshot walk to refTrial on failure
// sets the sweeps never draw: 0–6 links and 0–4 nodes from the input, under
// its order and seed, over a loaded 5x5 mesh. Before that failure the input
// churns the plan (establish, teardown, recovery through the claim API,
// replenish), and the same view and pools view trial between the writes, so
// every check also exercises a holder whose snapshot the last write made
// stale. The mesh is rebuilt per input from a fixed seed, so a failing input
// replays alone. The input's failure ends with a recovery through the claim
// API held to the reference.
func FuzzTrialMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{0, 17}, []byte{}, uint8(0))
	f.Add(int64(2), uint8(0), []byte{}, []byte{12}, uint8(1))
	f.Add(int64(3), uint8(5), []byte{3, 9, 40, 41, 70, 71}, []byte{6, 18, 24, 0}, uint8(2))
	f.Add(int64(4), uint8(2), []byte{}, []byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, churn uint8, linkBytes, nodeBytes []byte, order uint8) {
		g := topology.NewMesh(5, 5, 12)
		m := NewManager(g, DefaultConfig())
		load := rand.New(rand.NewSource(5))
		reqs := batchRequests(load, g, 140, defaultBatchSpec)
		for _, r := range reqs {
			_, _ = m.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
		}
		c := newReferenceChecker(m)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(churn%6); i++ {
			c.check(t, SingleNode(topology.NodeID(rng.Intn(g.NumNodes()))), ActivationOrder(i%3), seed)
			switch rng.Intn(4) {
			case 0:
				r := reqs[rng.Intn(len(reqs))]
				_, _ = m.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
			case 1:
				if conns := m.Connections(); len(conns) > 0 {
					if err := m.Teardown(conns[rng.Intn(len(conns))].ID); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				recoverAgainstReference(t, m, SingleLink(topology.LinkID(rng.Intn(g.NumLinks()))))
			default:
				for _, conn := range m.Connections() {
					if conn.Primary != nil && len(conn.Backups) == 0 {
						if _, err := m.ReplenishBackups(conn.ID, 1, 3, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		var links []topology.LinkID
		for _, b := range linkBytes[:min(len(linkBytes), 6)] {
			links = append(links, topology.LinkID(int(b)%g.NumLinks()))
		}
		var nodes []topology.NodeID
		for _, b := range nodeBytes[:min(len(nodeBytes), 4)] {
			nodes = append(nodes, topology.NodeID(int(b)%g.NumNodes()))
		}
		fail := NewFailure(links, nodes)
		c.check(t, fail, ActivationOrder(order%3), seed)
		recoverAgainstReference(t, m, fail)
	})
}
