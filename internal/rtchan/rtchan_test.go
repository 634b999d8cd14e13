package rtchan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rtcl/bcp/internal/topology"
)

func line4() (*topology.Graph, topology.Path) {
	g := topology.NewLine(4, 10)
	p, err := topology.PathBetween(g, []topology.NodeID{0, 1, 2, 3})
	if err != nil {
		panic(err)
	}
	return g, p
}

func TestEstablishPrimaryReserves(t *testing.T) {
	g, p := line4()
	n := NewNetwork(g)
	spec := TrafficSpec{Bandwidth: 4}
	ch, err := n.Establish(1, RolePrimary, 0, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ch.ID == 0 {
		t.Fatal("zero channel id")
	}
	for _, l := range p.Links() {
		if n.Dedicated(l) != 4 {
			t.Fatalf("link %d dedicated = %g", l, n.Dedicated(l))
		}
		if n.Free(l) != 6 {
			t.Fatalf("link %d free = %g", l, n.Free(l))
		}
	}
	// Reverse-direction links untouched.
	rev := g.LinkBetween(1, 0)
	if n.Dedicated(rev) != 0 {
		t.Fatal("reverse link reserved")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionRejects(t *testing.T) {
	g, p := line4()
	n := NewNetwork(g)
	if _, err := n.Establish(1, RolePrimary, 0, p, TrafficSpec{Bandwidth: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Establish(2, RolePrimary, 0, p, TrafficSpec{Bandwidth: 7}); err == nil {
		t.Fatal("overcommit accepted")
	}
	if _, err := n.Establish(2, RolePrimary, 0, p, TrafficSpec{Bandwidth: 3}); err != nil {
		t.Fatalf("fitting channel rejected: %v", err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEstablishRejectsBadArgs(t *testing.T) {
	g, p := line4()
	n := NewNetwork(g)
	if _, err := n.Establish(1, RolePrimary, 0, topology.Path{}, TrafficSpec{Bandwidth: 1}); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := n.Establish(1, RolePrimary, 0, p, TrafficSpec{Bandwidth: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestBackupDoesNotDedicate(t *testing.T) {
	g, p := line4()
	n := NewNetwork(g)
	ch, err := n.Establish(1, RoleBackup, 1, p, TrafficSpec{Bandwidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range p.Links() {
		if n.Dedicated(l) != 0 {
			t.Fatal("backup dedicated bandwidth")
		}
	}
	if ch.Role != RoleBackup || ch.Serial != 1 {
		t.Fatal("role/serial wrong")
	}
}

func TestTeardownReleases(t *testing.T) {
	g, p := line4()
	n := NewNetwork(g)
	ch, _ := n.Establish(1, RolePrimary, 0, p, TrafficSpec{Bandwidth: 4})
	if err := n.Teardown(ch.ID); err != nil {
		t.Fatal(err)
	}
	for _, l := range p.Links() {
		if n.Dedicated(l) != 0 {
			t.Fatal("teardown did not release")
		}
	}
	if n.Channel(ch.ID) != nil {
		t.Fatal("channel still registered")
	}
	if err := n.Teardown(ch.ID); err == nil {
		t.Fatal("double teardown accepted")
	}
	if len(n.ChannelsOnLink(p.Links()[0])) != 0 {
		t.Fatal("link index not cleaned")
	}
}

func TestSetSpare(t *testing.T) {
	g, p := line4()
	n := NewNetwork(g)
	l := p.Links()[0]
	if err := n.SetSpare(l, 6); err != nil {
		t.Fatal(err)
	}
	if n.Spare(l) != 6 || n.Free(l) != 4 {
		t.Fatalf("spare=%g free=%g", n.Spare(l), n.Free(l))
	}
	if err := n.SetSpare(l, 11); err == nil {
		t.Fatal("overcommitted spare accepted")
	}
	if err := n.SetSpare(l, -1); err == nil {
		t.Fatal("negative spare accepted")
	}
	// Spare constrains primary admission.
	if _, err := n.Establish(1, RolePrimary, 0, p, TrafficSpec{Bandwidth: 5}); err == nil {
		t.Fatal("admission ignored spare pool")
	}
}

func TestPromote(t *testing.T) {
	g, p := line4()
	n := NewNetwork(g)
	ch, _ := n.Establish(1, RoleBackup, 1, p, TrafficSpec{Bandwidth: 4})
	if err := n.Promote(ch.ID); err != nil {
		t.Fatal(err)
	}
	if ch.Role != RolePrimary {
		t.Fatal("role not updated")
	}
	for _, l := range p.Links() {
		if n.Dedicated(l) != 4 {
			t.Fatal("promotion did not dedicate bandwidth")
		}
	}
	if err := n.Promote(ch.ID); err == nil {
		t.Fatal("promoting a primary accepted")
	}
}

func TestPromoteRollsBackOnFailure(t *testing.T) {
	g, p := line4()
	n := NewNetwork(g)
	ch, _ := n.Establish(1, RoleBackup, 1, p, TrafficSpec{Bandwidth: 4})
	// Saturate the last link so promotion fails mid-path.
	last := p.Links()[len(p.Links())-1]
	if err := n.SetSpare(last, 8); err != nil {
		t.Fatal(err)
	}
	if err := n.Promote(ch.ID); err == nil {
		t.Fatal("promotion should fail")
	}
	for _, l := range p.Links() {
		if n.Dedicated(l) != 0 {
			t.Fatalf("rollback left dedicated=%g on link %d", n.Dedicated(l), l)
		}
	}
	if ch.Role != RoleBackup {
		t.Fatal("failed promotion changed role")
	}
}

func TestIndexes(t *testing.T) {
	g, p := line4()
	n := NewNetwork(g)
	c1, _ := n.Establish(1, RolePrimary, 0, p, TrafficSpec{Bandwidth: 1})
	c2, _ := n.Establish(2, RolePrimary, 0, p, TrafficSpec{Bandwidth: 1})
	l := p.Links()[1]
	on := n.ChannelsOnLink(l)
	if len(on) != 2 || on[0] != c1 || on[1] != c2 {
		t.Fatalf("link index = %v", on)
	}
	// A single hop that starts at node 1 and a reverse path that ends there:
	// node 1 lists the first on an out-link and the second on an in-link.
	hop, _ := topology.PathBetween(g, []topology.NodeID{1, 0})
	back, _ := topology.PathBetween(g, []topology.NodeID{3, 2, 1})
	c3, _ := n.Establish(3, RolePrimary, 0, hop, TrafficSpec{Bandwidth: 1})
	c4, _ := n.Establish(4, RoleBackup, 1, back, TrafficSpec{Bandwidth: 1})
	for _, tc := range []struct {
		v    topology.NodeID
		want []ChannelID
	}{
		{0, []ChannelID{c1.ID, c2.ID, c3.ID}},
		{1, []ChannelID{c1.ID, c2.ID, c3.ID, c4.ID}},
		{2, []ChannelID{c1.ID, c2.ID, c4.ID}},
		{3, []ChannelID{c1.ID, c2.ID, c4.ID}},
	} {
		if got := n.AppendChannelsAtNode(nil, tc.v); !slices.Equal(got, tc.want) {
			t.Fatalf("channels at node %d = %v, want %v", tc.v, got, tc.want)
		}
	}
	// Appending keeps what the buffer already holds and sorts only the new ids.
	if got := n.AppendChannelsAtNode([]ChannelID{99}, 1); !slices.Equal(got, []ChannelID{99, c1.ID, c2.ID, c3.ID, c4.ID}) {
		t.Fatalf("channels at node 1 appended to [99] = %v", got)
	}
	n.Teardown(c1.ID)
	if on := n.ChannelsOnLink(l); len(on) != 1 || on[0] != c2 {
		t.Fatalf("link index after teardown = %v", on)
	}
	if on := n.ChannelsOnLink(l); on[:2][1] != nil {
		t.Fatal("vacated index slot still pins the torn-down channel")
	}
	if got := n.AppendChannelsAtNode(nil, 1); !slices.Equal(got, []ChannelID{c2.ID, c3.ID, c4.ID}) {
		t.Fatalf("channels at node 1 after teardown = %v", got)
	}
}

func TestMetrics(t *testing.T) {
	g := topology.NewLine(3, 10) // 4 simplex links, capacity 40 total
	n := NewNetwork(g)
	p, _ := topology.PathBetween(g, []topology.NodeID{0, 1, 2})
	n.Establish(1, RolePrimary, 0, p, TrafficSpec{Bandwidth: 5})
	if got := n.NetworkLoad(); got != 10.0/40.0 {
		t.Fatalf("load = %g", got)
	}
	n.SetSpare(p.Links()[0], 2)
	if got := n.SpareFraction(); got != 2.0/40.0 {
		t.Fatalf("spare fraction = %g", got)
	}
}

func TestManyChannelsInvariantHolds(t *testing.T) {
	g := topology.NewTorus(4, 4, 100)
	n := NewNetwork(g)
	var chans []ChannelID
	// Saturating mix of establishes and teardowns.
	paths := [][]topology.NodeID{
		{0, 1, 2}, {2, 3, 0}, {5, 6, 7}, {0, 4, 8}, {8, 9, 10, 11},
	}
	for round := 0; round < 50; round++ {
		for _, nodes := range paths {
			p, err := topology.PathBetween(g, nodes)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := n.Establish(ConnID(round), RolePrimary, 0, p, TrafficSpec{Bandwidth: 1.5})
			if err == nil {
				chans = append(chans, ch.ID)
			}
		}
		if round%3 == 0 && len(chans) > 0 {
			n.Teardown(chans[0])
			chans = chans[1:]
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// randomPath walks g from a random node without revisiting, for 1-4 hops.
func randomPath(t *testing.T, g *topology.Graph, rng *rand.Rand) topology.Path {
	t.Helper()
	nodes := []topology.NodeID{topology.NodeID(rng.Intn(g.NumNodes()))}
	for hops := 1 + rng.Intn(4); len(nodes) <= hops; {
		out := g.Out(nodes[len(nodes)-1])
		next := g.Link(out[rng.Intn(len(out))]).To
		if slices.Contains(nodes, next) {
			break
		}
		nodes = append(nodes, next)
	}
	if len(nodes) < 2 {
		return randomPath(t, g, rng)
	}
	p, err := topology.PathBetween(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestIndexChurn checks the registry, the link index and the node lists
// derived from it against each other after every step of a seeded
// establish / teardown / promote / demote churn, and at the end that every
// listed handle still answers for its path.
func TestIndexChurn(t *testing.T) {
	g := topology.NewTorus(4, 4, 100)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NewNetwork(g)
		var live []*Channel
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(live) == 0:
				role := Role(rng.Intn(2))
				if ch, err := n.Establish(ConnID(step), role, int(role), randomPath(t, g, rng), TrafficSpec{Bandwidth: 1}); err == nil {
					live = append(live, ch)
				}
			case op < 7:
				i := rng.Intn(len(live))
				if err := n.Teardown(live[i].ID); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if n.Channel(live[i].ID) != nil {
					t.Fatalf("seed %d step %d: torn-down channel %d still resolves", seed, step, live[i].ID)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 9:
				if ch := live[rng.Intn(len(live))]; ch.Role == RoleBackup {
					_ = n.Promote(ch.ID) // may be refused for capacity; either way the indexes must hold
				}
			default:
				if ch := live[rng.Intn(len(live))]; ch.Role == RolePrimary {
					if err := n.Demote(ch.ID, 1); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
				}
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for v := range g.NumNodes() {
				if err := checkNodeList(n, topology.NodeID(v)); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if n.NumChannels() != len(live) {
			t.Fatalf("seed %d: %d channels registered, %d live", seed, n.NumChannels(), len(live))
		}
		for _, ch := range live {
			for _, l := range ch.Path.Links() {
				if !slices.Contains(n.ChannelsOnLink(l), ch) {
					t.Fatalf("seed %d: channel %d not listed on link %d", seed, ch.ID, l)
				}
			}
		}
	}
}

// checkNodeList compares AppendChannelsAtNode(nil, v) with a walk of the
// registry: the same set of channels, ascending, none listed twice.
func checkNodeList(n *Network, v topology.NodeID) error {
	got := n.AppendChannelsAtNode(nil, v)
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			return fmt.Errorf("node %d lists %v: not strictly ascending at %d", v, got, i)
		}
	}
	var want []ChannelID
	n.channels.Each(func(id ChannelID, ch *Channel) {
		if ch.Path.ContainsNode(v) {
			want = append(want, id)
		}
	})
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("node %d lists %v, the registry has %v there", v, got, want)
	}
	return nil
}

// TestCheckInvariantsCatchesStaleHandles corrupts the indexes in the ways a
// missed or wrong unindex would and requires the checker to object to each.
func TestCheckInvariantsCatchesStaleHandles(t *testing.T) {
	g, p := line4()
	build := func() (*Network, *Channel, *Channel) {
		n := NewNetwork(g)
		c1, _ := n.Establish(1, RolePrimary, 0, p, TrafficSpec{Bandwidth: 1})
		c2, _ := n.Establish(2, RoleBackup, 1, p, TrafficSpec{Bandwidth: 1})
		return n, c1, c2
	}
	l := p.Links()[1]
	for name, corrupt := range map[string]func(n *Network, c1, c2 *Channel){
		"entry of a torn-down channel": func(n *Network, c1, c2 *Channel) {
			n.channels.Delete(c2.ID)
		},
		"copy in place of the registry's handle": func(n *Network, c1, c2 *Channel) {
			dup := *c2
			n.byLink[l][1] = &dup
		},
		"newest missing from a link list": func(n *Network, c1, c2 *Channel) {
			n.byLink[l] = n.byLink[l][:1]
		},
		"missing from a link list": func(n *Network, c1, c2 *Channel) {
			n.byLink[l] = n.byLink[l][1:]
		},
		"descending ids": func(n *Network, c1, c2 *Channel) {
			n.byLink[l][0], n.byLink[l][1] = c2, c1
		},
		"listed twice": func(n *Network, c1, c2 *Channel) {
			n.byLink[l] = append(n.byLink[l], c2)
		},
		"listed off its path": func(n *Network, c1, c2 *Channel) {
			rev := g.LinkBetween(1, 0)
			n.byLink[rev] = append(n.byLink[rev], c1)
		},
	} {
		n, c1, c2 := build()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s: clean network: %v", name, err)
		}
		corrupt(n, c1, c2)
		if err := n.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants found nothing wrong", name)
		}
	}
}
