package workload

import (
	"math/rand"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
)

func TestAllPairs(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	reqs := AllPairs(g, rtchan.DefaultSpec(), []int{1})
	if len(reqs) != 16*15 {
		t.Fatalf("requests = %d", len(reqs))
	}
	seen := map[[2]topology.NodeID]bool{}
	for _, r := range reqs {
		if r.Src == r.Dst {
			t.Fatal("self pair")
		}
		key := [2]topology.NodeID{r.Src, r.Dst}
		if seen[key] {
			t.Fatal("duplicate pair")
		}
		seen[key] = true
	}
}

// TestMixedPartition holds Mixed to Table 2's assignment: every request
// carries `backups` backups at one degree, the degrees cycle through alphas
// in request order, and each class gets an equal share of the pairs.
func TestMixedPartition(t *testing.T) {
	g := topology.NewTorus(5, 4, 200) // 20·19 = 380 requests
	alphas := []int{1, 3, 5, 6}
	reqs := Mixed(g, rtchan.DefaultSpec(), 2, alphas)
	pairs := AllPairs(g, rtchan.DefaultSpec(), nil)
	if len(reqs) != len(pairs) {
		t.Fatalf("requests = %d, want %d", len(reqs), len(pairs))
	}
	counts := map[int]int{}
	for i, r := range reqs {
		if r.Src != pairs[i].Src || r.Dst != pairs[i].Dst {
			t.Fatalf("request %d is %d->%d, AllPairs has %d->%d", i, r.Src, r.Dst, pairs[i].Src, pairs[i].Dst)
		}
		d := r.Degrees
		if len(d) != 2 || d[0] != d[1] || d[0] != alphas[i%len(alphas)] {
			t.Fatalf("request %d degrees %v", i, d)
		}
		counts[d[0]]++
	}
	for _, alpha := range alphas {
		if counts[alpha] != 95 {
			t.Fatalf("class %d got %d connections", alpha, counts[alpha])
		}
	}
}

// TestHotSpotDistribution checks the draw order's shares: every even draw
// targets a hot node, so with the odd draws' uniform picks about half of the
// requests end at one; one request in four is heavy.
func TestHotSpotDistribution(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	hot := []topology.NodeID{9, 14}
	reqs := HotSpot(g, HotSpotConfig{
		Draws:          2000,
		HotNodes:       hot,
		HeavyBandwidth: 3,
		Spec:           rtchan.DefaultSpec(),
		Degrees:        []int{3},
	}, rand.New(rand.NewSource(1)))
	// Only src == dst draws are dropped: ~1 in 64.
	if len(reqs) < 1940 || len(reqs) >= 2000 {
		t.Fatalf("requests = %d", len(reqs))
	}
	hotCount, heavyCount := 0, 0
	for _, r := range reqs {
		for _, h := range hot {
			if r.Dst == h {
				hotCount++
				break
			}
		}
		if r.Spec.Bandwidth == 3 {
			heavyCount++
		}
		if len(r.Degrees) != 1 || r.Degrees[0] != 3 {
			t.Fatalf("degrees %v", r.Degrees)
		}
	}
	// ~1000 hot from the even draws plus ~1000·2/64 uniform odd picks.
	if hotCount < 950 || hotCount > 1100 {
		t.Fatalf("hot destinations = %d", hotCount)
	}
	if heavyCount < 400 || heavyCount > 600 {
		t.Fatalf("heavy requests = %d", heavyCount)
	}
}

func TestHotSpotEmptyConfig(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	if got := HotSpot(g, HotSpotConfig{}, rand.New(rand.NewSource(1))); got != nil {
		t.Fatal("empty config should produce nothing")
	}
}

func TestEstablishAppliesWorkload(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := core.NewManager(g, core.DefaultConfig())
	reqs := AllPairs(g, rtchan.DefaultSpec(), nil)
	est, rej := Establish(m, reqs)
	if est != 240 || rej != 0 {
		t.Fatalf("est=%d rej=%d", est, rej)
	}
	if m.NumConnections() != 240 {
		t.Fatal("connections missing")
	}
}

func TestDynamicTrace(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	cfg := DynamicConfig{
		ArrivalRate: 100,
		MeanHolding: sim.Duration(500 * time.Millisecond),
		Duration:    sim.Duration(10 * time.Second),
		Spec:        rtchan.DefaultSpec(),
		Degrees:     []int{3},
	}
	reqs := Dynamic(g, cfg, rand.New(rand.NewSource(2)))
	// ~1000 arrivals expected.
	if len(reqs) < 800 || len(reqs) > 1200 {
		t.Fatalf("requests = %d", len(reqs))
	}
	var prev sim.Duration
	var meanHold float64
	for _, r := range reqs {
		if r.Arrival < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = r.Arrival
		meanHold += float64(r.Holding)
	}
	meanHold /= float64(len(reqs))
	if meanHold < 0.4*float64(time.Second) || meanHold > 0.6*float64(time.Second) {
		t.Fatalf("mean holding = %v", time.Duration(meanHold))
	}
}

func TestRunChurnKeepsInvariants(t *testing.T) {
	g := topology.NewTorus(6, 6, 100)
	m := core.NewManager(g, core.DefaultConfig())
	eng := sim.New(1)
	reqs := Dynamic(g, DynamicConfig{
		ArrivalRate: 200,
		MeanHolding: sim.Duration(200 * time.Millisecond),
		Duration:    sim.Duration(5 * time.Second),
		Spec:        rtchan.DefaultSpec(),
		Degrees:     []int{3},
	}, rand.New(rand.NewSource(3)))
	stats := RunChurn(eng, m, reqs)
	eng.Run()
	if stats.Established == 0 || stats.Departed == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Established != stats.Departed+m.NumConnections() {
		t.Fatalf("conservation broken: %+v live=%d", stats, m.NumConnections())
	}
	if stats.PeakLoad <= 0 || stats.PeakLoad > 1 {
		t.Fatalf("peak load = %g", stats.PeakLoad)
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.Network().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Everything eventually departs: teardown the stragglers and verify a
	// clean network.
	for _, c := range m.Connections() {
		if err := m.Teardown(c.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range g.Links() {
		if m.Network().Dedicated(l.ID) != 0 || m.Network().Spare(l.ID) != 0 {
			t.Fatalf("link %d dirty after drain", l.ID)
		}
	}
}
