package baseline

import (
	"testing"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

func mustPath(t *testing.T, g *topology.Graph, nodes ...topology.NodeID) topology.Path {
	t.Helper()
	p, err := topology.PathBetween(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mesh3 layout:
//
//	0 1 2
//	3 4 5
//	6 7 8
func buildContention(t *testing.T) (*topology.Graph, *core.Manager) {
	t.Helper()
	g := topology.NewMesh(3, 3, 10)
	m := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	if _, err := m.EstablishOnPaths(spec, mustPath(t, g, 0, 1, 2),
		[]topology.Path{mustPath(t, g, 0, 3, 4, 5, 2)}, []int{8}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstablishOnPaths(spec, mustPath(t, g, 1, 2, 5),
		[]topology.Path{mustPath(t, g, 1, 4, 5)}, []int{8}); err != nil {
		t.Fatal(err)
	}
	return g, m
}

func TestUniformSpareFromManager(t *testing.T) {
	g, m := buildContention(t)
	got := UniformSpareFromManager(m)
	var total float64
	for _, l := range g.Links() {
		total += m.Network().Spare(l.ID)
	}
	if want := total / float64(g.NumLinks()); got != want {
		t.Fatalf("uniform = %g, want %g", got, want)
	}
}

func TestBruteForceTrialBasics(t *testing.T) {
	g, m := buildContention(t)
	// Generous uniform pool: both activations succeed.
	bf := NewBruteForce(m, 5, false)
	stats := bf.NewTrialView().Trial(core.SingleLink(g.LinkBetween(1, 2)), core.OrderByConn, nil)
	if stats.FailedPrimaries != 2 || stats.FastRecovered != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// Starved pool: both backups cross a shared link; with 1 unit only one
	// can claim it.
	bf = NewBruteForce(m, 1, false)
	stats = bf.NewTrialView().Trial(core.SingleLink(g.LinkBetween(1, 2)), core.OrderByConn, nil)
	if stats.FastRecovered != 1 || stats.MuxFailed != 1 {
		t.Fatalf("starved stats = %+v", stats)
	}
	// Zero pool: no recovery at all.
	bf = NewBruteForce(m, 0, false)
	stats = bf.NewTrialView().Trial(core.SingleLink(g.LinkBetween(1, 2)), core.OrderByConn, nil)
	if stats.FastRecovered != 0 || stats.MuxFailed != 2 {
		t.Fatalf("zero-pool stats = %+v", stats)
	}
}

func TestBruteForceCapLimit(t *testing.T) {
	// The brute-force uniform pool is fictitious: it can exceed a link's
	// real headroom. Build a link with dedicated 9/10 and two multiplexed
	// backups crossing it (spare 1): a uniform pool of 2 admits both
	// activations unless capped by the headroom.
	g := topology.NewMesh(3, 3, 10)
	m := core.NewManager(g, core.DefaultConfig())
	thick := rtchan.TrafficSpec{Bandwidth: 9, SlackHops: 2}
	if _, err := m.EstablishOnPaths(thick, mustPath(t, g, 3, 4), nil, nil); err != nil {
		t.Fatal(err)
	}
	thin := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	if _, err := m.EstablishOnPaths(thin, mustPath(t, g, 0, 1, 2),
		[]topology.Path{mustPath(t, g, 0, 3, 4, 5, 2)}, []int{8}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstablishOnPaths(thin, mustPath(t, g, 0, 1),
		[]topology.Path{mustPath(t, g, 0, 3, 4, 1)}, []int{8}); err != nil {
		t.Fatal(err)
	}
	if got := m.Network().Spare(g.LinkBetween(3, 4)); got != 1 {
		t.Fatalf("spare on 3->4 = %g, want 1 (multiplexed)", got)
	}
	fail := core.SingleLink(g.LinkBetween(0, 1))
	// Uncapped fictitious pool of 2: both backups claim 3->4.
	stats := NewBruteForce(m, 2, false).NewTrialView().Trial(fail, core.OrderByConn, nil)
	if stats.FastRecovered != 2 {
		t.Fatalf("uncapped stats = %+v", stats)
	}
	// Capped at headroom (10-9=1): only one activation fits.
	stats = NewBruteForce(m, 2, true).NewTrialView().Trial(fail, core.OrderByConn, nil)
	if stats.FastRecovered != 1 || stats.MuxFailed != 1 {
		t.Fatalf("capped stats = %+v", stats)
	}
}

func TestBruteForceExcludesEndNodeFailures(t *testing.T) {
	_, m := buildContention(t)
	bf := NewBruteForce(m, 5, false)
	stats := bf.NewTrialView().Trial(core.SingleNode(0), core.OrderByConn, nil)
	if stats.ExcludedConns != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestReestablishBaseline(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := core.NewManager(g, core.DefaultConfig())
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				if _, err := m.Establish(topology.NodeID(s), topology.NodeID(d), rtchan.DefaultSpec(), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	re := NewReestablish(m)
	stats := re.Trial(core.SingleLink(0))
	if stats.FailedPrimaries == 0 {
		t.Fatal("no failures on link 0")
	}
	// With a lightly loaded torus, most re-establishments succeed...
	if stats.FastRecovered == 0 {
		t.Fatal("no re-establishment succeeded")
	}
	// ...but the method gives no guarantee; on saturated links it fails.
	gTight := topology.NewTorus(4, 4, 1)
	mTight := core.NewManager(gTight, core.DefaultConfig())
	spec := rtchan.DefaultSpec()
	spec.SlackHops = 0
	if _, err := mTight.EstablishOnPaths(spec,
		mustPath(t, gTight, 0, 1), nil, nil); err != nil {
		t.Fatal(err)
	}
	// Saturate every alternative 0->1 route of length <= slack.
	reTight := NewReestablish(mTight)
	stats = reTight.Trial(core.SingleLink(gTight.LinkBetween(0, 1)))
	if stats.FailedPrimaries != 1 || stats.FastRecovered != 0 {
		t.Fatalf("tight stats = %+v (expected unrecoverable)", stats)
	}
}
