package core_test

import (
	"strings"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
)

// TestQuiescenceAuditsMuxInvariants holds bcpd's quiescence audit to running
// the resource plane's own (it lives here for SkewClaimed). A protocol-plane
// promotion followed by repair and drain must be clean, which it was not
// while ActivateClaimed and promoteBackup both subtracted the promoted
// bandwidth from the link's claimed total; and a claimed total that no claim
// accounts for, the state that bug left, must be reported.
func TestQuiescenceAuditsMuxInvariants(t *testing.T) {
	g := topology.NewMesh(3, 3, 10)
	path := func(nodes ...topology.NodeID) topology.Path {
		p, err := topology.PathBetween(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mgr := core.NewManager(g, core.DefaultConfig())
	conn, err := mgr.EstablishOnPaths(rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2},
		path(0, 1, 2), []topology.Path{path(0, 3, 4, 5, 2)}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(1)
	net := bcpd.New(eng, mgr, bcpd.DefaultConfig())

	failed := g.LinkBetween(1, 2)
	net.FailLink(failed)
	eng.RunFor(200 * time.Millisecond)
	if conn.Primary == nil || conn.Primary.Path.Hops() != 4 {
		t.Fatal("backup not promoted")
	}
	net.RepairLink(failed)
	for deadline := eng.Now().Add(10 * time.Second); eng.Pending() > 0 && eng.Now() < deadline; {
		eng.Step()
	}
	if v := net.CheckQuiescence(); len(v) != 0 {
		t.Fatalf("quiescence audit after a promotion: %v", v)
	}

	mgr.SkewClaimed(conn.Primary.Path.Links()[0], -1)
	v := net.CheckQuiescence()
	if len(v) != 1 || !strings.Contains(v[0], "claimed -1, its claims hold 0") {
		t.Fatalf("quiescence audit with a skewed claimed total: %v", v)
	}
}
