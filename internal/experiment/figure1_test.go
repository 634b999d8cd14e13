package experiment

// The paper's motivating example (Figures 1 and 2): a 10-node network where
// three channels compete for a bottleneck link. Blind rerouting after the
// failure of N2 cannot restore both affected channels within their QoS
// bounds, while BCP's a-priori backups (with backup multiplexing on the
// bottleneck) restore everything instantly.
//
// Topology (nodes N1..N10 -> ids 0..9), each adjacent pair joined by two
// simplex links that fit two 1-unit channels each:
//
//	N1 --- N2 --- N3        N1=0  N2=1  N3=2
//	 |      |      |
//	N4 --- N5 --- N6        N4=3  N5=4  N6=5
//	 |      |      |
//	N7 --- N8 --- N9        N7=6  N8=7  N9=8
//	        |
//	       N10               N10=9
//
// The figure's exact channel endpoints are not fully legible from the
// text, so these tests keep the *structure* of the argument rather than the
// drawing: two channels traverse a node N2 whose failure forces both onto a
// detour corridor with capacity for only one of them, while a third channel
// already occupies half that corridor. Blind rerouting then loses one
// channel; BCP with multiplexed backups — and the third channel's primary
// kept off the corridor at planning time (Figure 2) — saves both.

import (
	"testing"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

func figure1Graph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(10)
	duplex := func(a, b topology.NodeID) {
		if _, err := g.AddLink(a, b, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddLink(b, a, 2); err != nil {
			t.Fatal(err)
		}
	}
	// 3x3 grid N1..N9 plus N10 hanging off N8.
	duplex(0, 1)
	duplex(1, 2)
	duplex(0, 3)
	duplex(1, 4)
	duplex(2, 5)
	duplex(3, 4)
	duplex(4, 5)
	duplex(3, 6)
	duplex(4, 7)
	duplex(5, 8)
	duplex(6, 7)
	duplex(7, 8)
	duplex(7, 9)
	return g
}

func fig1Path(t *testing.T, g *topology.Graph, nodes ...topology.NodeID) topology.Path {
	t.Helper()
	p, err := topology.PathBetween(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFigure1BlindReroutingLosesAChannel reproduces Figure 1: channels 1
// and 2 run through N2 (node 1); channel 3 occupies half of the N4->N5->N6
// detour corridor. After N2 fails, the corridor (links 3->4, 4->5) has one
// unit left: only one of the two affected channels fits a shortest detour,
// and the other's QoS (shortest+2) cannot be met elsewhere.
func TestFigure1BlindReroutingLosesAChannel(t *testing.T) {
	g := figure1Graph(t)
	m := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	// No backups: the blind-rerouting world.
	ch1, err := m.EstablishOnPaths(spec, fig1Path(t, g, 0, 1, 2, 5), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Channel 2 has the tight QoS of the paper's narrative: "if channel 2's
	// QoS requirement is too tight to fit the longer path, channel 2 cannot
	// be recovered from N2's failure".
	tight := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 1}
	ch2, err := m.EstablishOnPaths(tight, fig1Path(t, g, 0, 1, 4, 5), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Channel 3 takes the corridor (Figure 1(a) routes it over N5-N6).
	ch3, err := m.EstablishOnPaths(spec, fig1Path(t, g, 3, 4, 5, 8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = ch3

	// The corridor links 3->4 and 4->5 now hold one unit each (channel 3),
	// leaving room for exactly one rerouted channel. After N2 dies, both
	// channel 1 and channel 2 need new paths through it.
	re := mustReestablish(m)
	stats := re.Trial(core.SingleNode(1))
	if stats.FailedPrimaries != 2 {
		t.Fatalf("N2 failure should hit channels 1 and 2, got %d", stats.FailedPrimaries)
	}
	if stats.FastRecovered >= 2 {
		t.Fatalf("blind rerouting restored both channels (%d) — the bottleneck did not bind", stats.FastRecovered)
	}
	_ = ch1
	_ = ch2
}

func mustReestablish(m *core.Manager) *reestablishShim { return &reestablishShim{m} }

// reestablishShim avoids an import cycle on internal/baseline in this test
// by reimplementing the minimal blind-rerouting trial inline.
type reestablishShim struct{ m *core.Manager }

func (r *reestablishShim) Trial(f core.Failure) core.RecoveryStats {
	var stats core.RecoveryStats
	g := r.m.Graph()
	net := r.m.Network()
	freed := make(map[topology.LinkID]float64)
	var needs []*core.DConnection
	for _, conn := range r.m.Connections() {
		if conn.Primary == nil || f.NodeFailed(conn.Src) || f.NodeFailed(conn.Dst) {
			continue
		}
		if f.HitsPath(conn.Primary.Path) {
			stats.FailedPrimaries++
			needs = append(needs, conn)
			for _, l := range conn.Primary.Path.Links() {
				freed[l] += conn.Spec.Bandwidth
			}
		}
	}
	taken := make(map[topology.LinkID]float64)
	for _, conn := range needs {
		bw := conn.Spec.Bandwidth
		base := distanceIgnoring(g, conn.Src, conn.Dst, f)
		p, ok := shortestIgnoring(g, conn.Src, conn.Dst, f, func(l topology.LinkID) bool {
			return net.Free(l)+freed[l]-taken[l] >= bw-1e-9
		}, base+conn.Spec.SlackHops)
		if ok {
			for _, l := range p.Links() {
				taken[l] += bw
			}
			stats.FastRecovered++
		}
	}
	return stats
}

// TestFigure2BCPRestoresEverything reproduces Figure 2: same demands, but
// planned with BCP. Channel 3's primary keeps off the corridor (routed over
// N8/N9 — the paper moves it over N9), the three backups share the corridor
// via multiplexing, and the N2 failure is absorbed instantly.
func TestFigure2BCPRestoresEverything(t *testing.T) {
	g := figure1Graph(t)
	m := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	// Figure 2(a): primaries 1 and 2 via N2; their backups and channel 3's
	// backup multiplex on the corridor links around N5.
	// Degrees of 4: primaries 1 and 2 share link N1->N2 plus nodes N1, N5
	// (sc = 4), so their backups do NOT share spare bandwidth — while
	// channel 3's disjoint primary lets its backup multiplex with both.
	// This is exactly Figure 2's sharing pattern.
	ch1, err := m.EstablishOnPaths(spec,
		fig1Path(t, g, 0, 1, 2, 5),                  // primary-1 via N2, N3
		[]topology.Path{fig1Path(t, g, 0, 3, 4, 5)}, // backup-1 via the corridor
		[]int{4})
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := m.EstablishOnPaths(spec,
		fig1Path(t, g, 0, 1, 4, 5),                        // primary-2 via N2, N5
		[]topology.Path{fig1Path(t, g, 0, 3, 6, 7, 8, 5)}, // backup-2 south loop
		[]int{4})
	if err != nil {
		t.Fatal(err)
	}
	// Channel 3: primary routed *around* the corridor (Figure 2's point),
	// backup multiplexed onto it.
	ch3, err := m.EstablishOnPaths(spec,
		fig1Path(t, g, 3, 6, 7, 8),                  // primary-3 kept off the corridor
		[]topology.Path{fig1Path(t, g, 3, 4, 7, 8)}, // backup-3 multiplexes on 3->4
		[]int{4})
	if err != nil {
		t.Fatal(err)
	}

	// N2 (node 1) fails: channels 1 and 2 lose their primaries; both
	// backups activate; channel 3 is untouched.
	stats := m.NewTrialView().Trial(core.SingleNode(1), core.OrderByConn, nil)
	if stats.FailedPrimaries != 2 || stats.FastRecovered != 2 {
		t.Fatalf("BCP should restore both channels: %+v", stats)
	}
	// The corridor's spare was shared: backup-1 and backup-3 coexist on
	// link 3->4 with a single unit of spare (disjoint primaries).
	shared := g.LinkBetween(3, 4)
	backups := 0
	for _, ch := range m.Network().ChannelsOnLink(shared) {
		if ch.Role == rtchan.RoleBackup {
			backups++
		}
	}
	if backups != 2 {
		t.Fatalf("corridor sharing did not materialize on 3->4 (backups=%d)", backups)
	}
	if spare := m.Network().Spare(shared); spare >= 2 {
		t.Fatalf("corridor spare %g: no multiplexing", spare)
	}
	_, _, _ = ch1, ch2, ch3
}

// Helpers for the blind-rerouting shim.

func distanceIgnoring(g *topology.Graph, src, dst topology.NodeID, f core.Failure) int {
	p, ok := shortestIgnoring(g, src, dst, f, nil, 0)
	if !ok {
		return 1 << 20
	}
	return p.Hops()
}

func shortestIgnoring(g *topology.Graph, src, dst topology.NodeID, f core.Failure, linkOK func(topology.LinkID) bool, maxHops int) (topology.Path, bool) {
	c := routing.Constraint{
		MaxHops: maxHops,
		LinkAllowed: func(l topology.LinkID) bool {
			if f.LinkFailed(l) {
				return false
			}
			lk := g.Link(l)
			if f.NodeFailed(lk.From) || f.NodeFailed(lk.To) {
				return false
			}
			return linkOK == nil || linkOK(l)
		},
		NodeAllowed: func(n topology.NodeID) bool { return !f.NodeFailed(n) },
	}
	return routing.NewRouter(g).ShortestPath(src, dst, c)
}
