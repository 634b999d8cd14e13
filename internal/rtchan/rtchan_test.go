package rtchan

import (
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
	if ch.ID == NoChannel {
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
	atNode := n.ChannelsAtNode(0)
	if len(atNode) != 2 {
		t.Fatalf("node index = %v", atNode)
	}
	n.Teardown(c1.ID)
	if on := n.ChannelsOnLink(l); len(on) != 1 || on[0] != c2 {
		t.Fatalf("link index after teardown = %v", on)
	}
	if on := n.ChannelsOnLink(l); on[:2][1] != nil {
		t.Fatal("vacated index slot still pins the torn-down channel")
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

// TestIndexChurn checks the registry and both handle indexes against each
// other after every step of a seeded establish / teardown / promote / demote
// churn, and at the end that every listed handle still answers for its path.
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
	l, v := p.Links()[1], p.Nodes()[1]
	for name, corrupt := range map[string]func(n *Network, c1, c2 *Channel){
		"entry of a torn-down channel": func(n *Network, c1, c2 *Channel) {
			n.channels.Delete(c2.ID)
		},
		"copy in place of the registry's handle": func(n *Network, c1, c2 *Channel) {
			dup := *c2
			n.byLink[l][1] = &dup
		},
		"missing from a node list": func(n *Network, c1, c2 *Channel) {
			n.byNode[v] = n.byNode[v][:1]
		},
		"missing from a link list": func(n *Network, c1, c2 *Channel) {
			n.byLink[l] = n.byLink[l][1:]
		},
		"descending ids": func(n *Network, c1, c2 *Channel) {
			n.byNode[v][0], n.byNode[v][1] = c2, c1
		},
		"listed twice": func(n *Network, c1, c2 *Channel) {
			n.byNode[v] = append(n.byNode[v], c2)
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
