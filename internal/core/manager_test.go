package core

import (
	"math/rand"
	"testing"

	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

func TestEstablishRoutesDisjointChannels(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	m := newTestManager(g)
	conn, err := m.Establish(0, 36, rtchan.DefaultSpec(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if conn.Primary.Path.Hops() != 8 {
		t.Fatalf("primary hops = %d, want 8", conn.Primary.Path.Hops())
	}
	all := conn.Channels()
	if len(all) != 3 {
		t.Fatalf("channels = %d", len(all))
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if !all[i].Path.ComponentDisjoint(all[j].Path) {
				t.Fatalf("channels %d,%d are not component-disjoint", i, j)
			}
		}
		if all[i].Path.Source() != 0 || all[i].Path.Destination() != 36 {
			t.Fatal("wrong endpoints")
		}
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.plan.net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEstablishRejectsBadArgs(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	if _, err := m.Establish(0, 0, rtchan.DefaultSpec(), nil); err == nil {
		t.Fatal("src==dst accepted")
	}
	spec := rtchan.DefaultSpec()
	spec.Bandwidth = 0
	if _, err := m.Establish(0, 1, spec, nil); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestEstablishRejectsWhenNoDisjointBackup(t *testing.T) {
	g := topology.NewLine(4, 10)
	m := newTestManager(g)
	if _, err := m.Establish(0, 3, rtchan.DefaultSpec(), []int{1}); err == nil {
		t.Fatal("line topology cannot host a disjoint backup")
	}
	// No residue.
	if m.NumConnections() != 0 {
		t.Fatal("failed establish left a connection")
	}
	for _, l := range g.Links() {
		if m.plan.net.Dedicated(l.ID) != 0 || m.plan.net.Spare(l.ID) != 0 {
			t.Fatal("failed establish left reservations")
		}
	}
}

func TestEstablishHonorsQoSSlack(t *testing.T) {
	// Saturate the direct path so the only feasible route exceeds base+slack.
	g := topology.NewRing(8, 1) // capacity 1: a single channel fills a link
	m := newTestManager(g)
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	if _, err := m.Establish(0, 1, spec, nil); err != nil {
		t.Fatal(err)
	}
	// 0->1 direct is full; the alternative runs 7 hops counterclockwise,
	// exceeding 1+2. Must reject.
	if _, err := m.Establish(0, 1, spec, nil); err == nil {
		t.Fatal("QoS-violating path accepted")
	}
	// With enough slack it is accepted.
	spec.SlackHops = 6
	if _, err := m.Establish(0, 1, spec, nil); err != nil {
		t.Fatalf("slack 6 rejected: %v", err)
	}
}

func TestEstablishZeroBackups(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	conn, err := m.Establish(0, 5, rtchan.DefaultSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) != 0 {
		t.Fatal("unexpected backups")
	}
	if m.plan.net.SpareFraction() != 0 {
		t.Fatal("spare reserved without backups")
	}
}

func TestEstablishOnPathsValidation(t *testing.T) {
	g, path := mesh3(t)
	m := newTestManager(g)
	if _, err := m.EstablishOnPaths(spec1(), topology.Path{}, nil, nil); err == nil {
		t.Fatal("empty primary accepted")
	}
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(0, 3, 4, 5, 2)}, nil); err == nil {
		t.Fatal("degree/backup count mismatch accepted")
	}
	if _, err := m.EstablishOnPaths(spec1(), path(0, 1, 2),
		[]topology.Path{path(3, 4, 5)}, []int{1}); err == nil {
		t.Fatal("endpoint-mismatched backup accepted")
	}
}

func TestTeardownUnknown(t *testing.T) {
	g, _ := mesh3(t)
	m := newTestManager(g)
	if err := m.Teardown(42); err == nil {
		t.Fatal("unknown teardown accepted")
	}
}

func TestConnectionsOrder(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	var ids []rtchan.ConnID
	for i := 0; i < 5; i++ {
		c, err := m.Establish(topology.NodeID(i), topology.NodeID(i+8), rtchan.DefaultSpec(), []int{1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID)
	}
	m.Teardown(ids[2])
	conns := m.Connections()
	if len(conns) != 4 {
		t.Fatalf("connections = %d", len(conns))
	}
	for i := 1; i < len(conns); i++ {
		if conns[i].ID <= conns[i-1].ID {
			t.Fatal("not in establishment order")
		}
	}
}

func TestFullTorusEstablishment(t *testing.T) {
	// Establishing a connection between every node pair with one backup at
	// mux=3 must succeed on the paper's torus (it does in the paper).
	if testing.Short() {
		t.Skip("short mode")
	}
	g := topology.NewTorus(8, 8, 200)
	m := NewManager(g, DefaultConfig())
	n := g.NumNodes()
	count := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if _, err := m.Establish(topology.NodeID(s), topology.NodeID(d), rtchan.DefaultSpec(), []int{3}); err != nil {
				t.Fatalf("pair %d->%d: %v", s, d, err)
			}
			count++
		}
	}
	if count != 4032 {
		t.Fatalf("connections = %d", count)
	}
	load := m.plan.net.NetworkLoad()
	if load < 0.30 || load > 0.40 {
		t.Fatalf("network load = %.3f, paper reports 0.33-0.34", load)
	}
	spare := m.plan.net.SpareFraction()
	if spare < 0.10 || spare > 0.40 {
		t.Fatalf("spare fraction = %.3f, out of plausible range", spare)
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.plan.net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("torus mux=3: load=%.4f spare=%.4f", load, spare)
}

func TestRandomChurnKeepsInvariants(t *testing.T) {
	g := topology.NewTorus(6, 6, 50)
	m := NewManager(g, DefaultConfig())
	rng := rand.New(rand.NewSource(99))
	var live []rtchan.ConnID
	for step := 0; step < 300; step++ {
		if rng.Intn(3) < 2 || len(live) == 0 {
			s := topology.NodeID(rng.Intn(36))
			d := topology.NodeID(rng.Intn(36))
			if s == d {
				continue
			}
			nb := rng.Intn(3)
			degrees := make([]int, nb)
			for i := range degrees {
				degrees[i] = 1 + rng.Intn(6)
			}
			if c, err := m.Establish(s, d, rtchan.DefaultSpec(), degrees); err == nil {
				live = append(live, c.ID)
			}
		} else {
			i := rng.Intn(len(live))
			if err := m.Teardown(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		if step%25 == 0 {
			if err := m.CheckMuxInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := m.plan.net.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// Drain and verify clean state.
	for _, id := range live {
		if err := m.Teardown(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range g.Links() {
		if m.plan.net.Dedicated(l.ID) != 0 || m.plan.net.Spare(l.ID) != 0 {
			t.Fatalf("link %d dirty after drain: dedicated=%g spare=%g",
				l.ID, m.plan.net.Dedicated(l.ID), m.plan.net.Spare(l.ID))
		}
	}
}

func TestRouteBackupRespectsExclusion(t *testing.T) {
	g := topology.NewTorus(4, 4, 200)
	m := newTestManager(g)
	p, ok := routing.NewRouter(g).ShortestPath(0, 5, routing.Constraint{})
	if !ok {
		t.Fatal("no path")
	}
	pc := m.estCtx
	pc.excl.Reset().AddPath(p)
	pc.bw = 1
	b, ok := pc.routeBackupPath(0, 5)
	if !ok {
		t.Fatal("no backup path")
	}
	if !b.ComponentDisjoint(p) {
		t.Fatal("backup not component-disjoint from excluded path")
	}
}
