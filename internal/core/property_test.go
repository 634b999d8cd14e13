package core

import (
	"math/rand"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Property tests on the multiplexing engine's structural invariants,
// exercised over randomized workloads and topologies:
//
//  1. per link, spare <= Σ bw of the backups crossing it (multiplexing can
//     only save versus dedicated reservation — the paper's base claim)
//  2. per link with any backups, spare >= max backup bw (a lone activation
//     must always fit)
//  3. mux=0 makes the bound in (1) an equality (no sharing at all)
//  4. establishment followed by teardown leaves zero reservations
//  5. R_fast at mux=1 is 1 under any single-component failure
//     (the paper's headline guarantee)

func randomManager(t *testing.T, seed int64, alphaPick func(*rand.Rand) int) (*Manager, *topology.Graph, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var g *topology.Graph
	switch rng.Intn(3) {
	case 0:
		g = topology.NewTorus(4+rng.Intn(3), 4+rng.Intn(3), 50)
	case 1:
		g = topology.NewMesh(4+rng.Intn(3), 4+rng.Intn(3), 80)
	default:
		g = topology.NewRandom(24+rng.Intn(16), 3.5, 60, seed)
	}
	m := NewManager(g, DefaultConfig())
	n := g.NumNodes()
	for i := 0; i < 120; i++ {
		s := topology.NodeID(rng.Intn(n))
		d := topology.NodeID(rng.Intn(n))
		if s == d {
			continue
		}
		nb := rng.Intn(3)
		degrees := make([]int, nb)
		for j := range degrees {
			degrees[j] = alphaPick(rng)
		}
		spec := rtchan.DefaultSpec()
		if rng.Intn(4) == 0 {
			spec.Bandwidth = 1 + float64(rng.Intn(3))
		}
		_, _ = m.Establish(s, d, spec, degrees)
	}
	return m, g, rng
}

func backupBWOnLink(m *Manager, l topology.LinkID) (sum, max float64, n int) {
	for _, ch := range m.plan.net.ChannelsOnLink(l) {
		if ch.Role == rtchan.RoleBackup {
			sum += ch.Bandwidth()
			if ch.Bandwidth() > max {
				max = ch.Bandwidth()
			}
			n++
		}
	}
	return sum, max, n
}

func TestPropertySpareBounds(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		m, g, _ := randomManager(t, seed, func(r *rand.Rand) int { return 1 + r.Intn(6) })
		for _, l := range g.Links() {
			sum, max, n := backupBWOnLink(m, l.ID)
			spare := m.plan.net.Spare(l.ID)
			if n == 0 {
				if spare != 0 {
					t.Fatalf("seed %d: link %d spare %g without backups", seed, l.ID, spare)
				}
				continue
			}
			if spare > sum+1e-6 {
				t.Fatalf("seed %d: link %d spare %g exceeds no-mux bound %g", seed, l.ID, spare, sum)
			}
			if spare < max-1e-6 {
				t.Fatalf("seed %d: link %d spare %g below largest backup %g", seed, l.ID, spare, max)
			}
		}
		if err := m.CheckMuxInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestPropertyMuxZeroIsDedicated(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		m, g, _ := randomManager(t, seed, func(*rand.Rand) int { return 0 })
		for _, l := range g.Links() {
			sum, _, n := backupBWOnLink(m, l.ID)
			if n == 0 {
				continue
			}
			if spare := m.plan.net.Spare(l.ID); spare < sum-1e-6 || spare > sum+1e-6 {
				t.Fatalf("seed %d: link %d spare %g, want exactly %g at mux=0", seed, l.ID, spare, sum)
			}
		}
	}
}

func TestPropertyTeardownLeavesNothing(t *testing.T) {
	for seed := int64(30); seed < 36; seed++ {
		m, g, _ := randomManager(t, seed, func(r *rand.Rand) int { return r.Intn(7) })
		for _, c := range m.Connections() {
			if err := m.Teardown(c.ID); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for _, l := range g.Links() {
			if m.plan.net.Dedicated(l.ID) != 0 || m.plan.net.Spare(l.ID) != 0 {
				t.Fatalf("seed %d: link %d dirty (dedicated=%g spare=%g)",
					seed, l.ID, m.plan.net.Dedicated(l.ID), m.plan.net.Spare(l.ID))
			}
		}
		if m.NumConnections() != 0 {
			t.Fatalf("seed %d: %d connections remain", seed, m.NumConnections())
		}
	}
}

func TestPropertyMuxOneSingleFailureGuarantee(t *testing.T) {
	// The headline guarantee: at mux=1, every connection whose primary is
	// killed by a single component failure recovers fast, for any workload
	// and any single failed component.
	for seed := int64(40); seed < 46; seed++ {
		m, g, rng := randomManager(t, seed, func(*rand.Rand) int { return 1 })
		for trial := 0; trial < 40; trial++ {
			var f Failure
			if rng.Intn(2) == 0 {
				f = SingleLink(topology.LinkID(rng.Intn(g.NumLinks())))
			} else {
				f = SingleNode(topology.NodeID(rng.Intn(g.NumNodes())))
			}
			stats := m.NewTrialView().Trial(f, OrderByConn, nil)
			if stats.MuxFailed != 0 {
				t.Fatalf("seed %d trial %d: %d multiplexing failures at mux=1",
					seed, trial, stats.MuxFailed)
			}
			// The workload mixes in zero-backup connections, which cannot
			// recover; every *backed-up* (degree 1) connection must.
			if d, ok := stats.ByDegree[1]; ok && d.FastRecovered != d.FailedPrimaries {
				t.Fatalf("seed %d trial %d: mux=1 class recovered %d of %d",
					seed, trial, d.FastRecovered, d.FailedPrimaries)
			}
		}
	}
}

func TestPropertyApplyKeepsCapacityInvariant(t *testing.T) {
	for seed := int64(50); seed < 54; seed++ {
		m, g, rng := randomManager(t, seed, func(r *rand.Rand) int { return 1 + r.Intn(6) })
		for trial := 0; trial < 6; trial++ {
			var f Failure
			if rng.Intn(2) == 0 {
				f = SingleLink(topology.LinkID(rng.Intn(g.NumLinks())))
			} else {
				f = SingleNode(topology.NodeID(rng.Intn(g.NumNodes())))
			}
			if _, err := m.Apply(f, OrderByPriority, rng); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := m.plan.net.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := m.CheckMuxInvariants(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}
