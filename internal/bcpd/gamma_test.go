package bcpd

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/wire"
)

// downSet is a failure as refCount reads it: the failed links and dead
// nodes.
type downSet struct{ link, node []bool }

// refCount is the counting walk's reference: it walks every connection's
// paths, not the link index, and decides each link of a disabled channel
// on its own. A report crosses the reverse of link k toward the source when
// a failed component lies further along the path (a link after k, or a node
// past k+1), and link k toward the destination when one lies before it.
func refCount(m *core.Manager, f downSet, cfg Config) ([]int32, map[rtchan.ConnID]sim.Duration) {
	g := m.Graph()
	n := make([]int32, g.NumLinks())
	bump := func(l topology.LinkID) {
		if l != topology.NoLink {
			n[l]++
		}
	}
	hits := func(p topology.Path) bool {
		return slices.ContainsFunc(p.Links(), func(l topology.LinkID) bool { return f.link[l] }) ||
			slices.ContainsFunc(p.Nodes(), func(v topology.NodeID) bool { return f.node[v] })
	}
	// toSource and toDest say whether a report crosses link k of p, each
	// way.
	failedAt := func(p topology.Path, i int) bool { return f.node[p.Nodes()[i]] }
	toSource := func(p topology.Path, k int) bool {
		for j := k + 1; j < p.Hops(); j++ {
			if f.link[p.Links()[j]] {
				return true
			}
		}
		for i := k + 2; i <= p.Hops(); i++ {
			if failedAt(p, i) {
				return true
			}
		}
		return false
	}
	toDest := func(p topology.Path, k int) bool {
		for j := 0; j < k; j++ {
			if f.link[p.Links()[j]] {
				return true
			}
		}
		for i := 0; i < k; i++ {
			if failedAt(p, i) {
				return true
			}
		}
		return false
	}
	var disrupted []*core.DConnection
	for _, c := range m.Connections() {
		chans := append([]*rtchan.Channel{c.Primary}, c.Backups...)
		for _, ch := range chans {
			if !hits(ch.Path) {
				continue
			}
			for k, l := range ch.Path.Links() {
				if toSource(ch.Path, k) {
					bump(g.Reverse(l))
				}
				if toDest(ch.Path, k) {
					bump(l)
				}
			}
		}
		if hits(c.Primary.Path) {
			disrupted = append(disrupted, c)
			for _, b := range c.Backups {
				for _, l := range b.Path.Links() {
					bump(l)
					bump(g.Reverse(l))
				}
			}
		}
	}
	c := int32(wire.MaxControlsForBudget(cfg.RCC.SMax))
	wait := func(l topology.LinkID) sim.Duration {
		if l == topology.NoLink || n[l] <= c {
			return 0
		}
		return sim.Duration((n[l]+c-1)/c-1) * cfg.frameInterval()
	}
	extra := make(map[rtchan.ConnID]sim.Duration)
	for _, conn := range disrupted {
		var e sim.Duration
		for k, l := range conn.Primary.Path.Links() {
			if toSource(conn.Primary.Path, k) {
				e += wait(g.Reverse(l))
			}
		}
		if len(conn.Backups) > 1 { // a retrial crosses the backups both ways
			for _, b := range conn.Backups {
				for _, l := range b.Path.Links() {
					e += wait(l) + wait(g.Reverse(l))
				}
			}
		}
		extra[conn.ID] = e
	}
	return n, extra
}

// FuzzControlCountMatchesReference holds the counting walk behind the Γ
// bound (Network.countControls: the link index, one cut per channel) to
// refCount on random small tori loaded with random connections of one or
// two backups, after FailLink and FailNode on random links and nodes; the
// bound the last crash counted must be the reference's too. A frame of two
// controls makes most loaded links add intervals.
func FuzzControlCountMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), uint8(40+seed), uint8(seed%3), uint8(seed%2+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, conns, links, nodes uint8) {
		g := topology.NewTorus(3+int(shape%3), 3+int(shape/3%3), 100)
		m := core.NewManager(g, core.DefaultConfig())
		rng := rand.New(rand.NewSource(seed))
		nn := g.NumNodes()
		for i := 0; i < int(conns%64); i++ {
			s, d := topology.NodeID(rng.Intn(nn)), topology.NodeID(rng.Intn(nn))
			if s != d {
				_, _ = m.Establish(s, d, rtchan.DefaultSpec(), []int{1 + rng.Intn(3), 1 + rng.Intn(3)}[:1+rng.Intn(2)])
			}
		}
		cfg := DefaultConfig()
		cfg.RCC.SMax = 10 + 2*14 // header + two controls
		net := New(sim.New(seed), m, cfg)
		net.CountGamma()
		down := downSet{link: make([]bool, g.NumLinks()), node: make([]bool, nn)}
		for i := 0; i < int(links%4); i++ {
			l := topology.LinkID(rng.Intn(g.NumLinks()))
			net.FailLink(l)
			down.link[l] = true
		}
		for i := 0; i < int(nodes%3); i++ {
			v := topology.NodeID(rng.Intn(nn))
			net.FailNode(v)
			down.node[v] = true
		}
		// A link that is down as a dead node's is the node's failure.
		for _, lk := range g.Links() {
			down.link[lk.ID] = down.link[lk.ID] && !down.node[lk.From] && !down.node[lk.To]
		}
		gotN, gotExtra := net.countControls()
		wantN, wantExtra := refCount(m, down, cfg)
		if !slices.Equal(gotN, wantN) {
			t.Fatalf("n_l(f):\n got %v\nwant %v", gotN, wantN)
		}
		if !maps.Equal(gotExtra, wantExtra) {
			t.Fatalf("extra frame intervals:\n got %v\nwant %v", gotExtra, wantExtra)
		}
		if !maps.Equal(net.gamma, wantExtra) {
			t.Fatalf("the last crash counted\n %v\nwant %v", net.gamma, wantExtra)
		}
	})
}
