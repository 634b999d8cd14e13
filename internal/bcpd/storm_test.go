package bcpd

import (
	"math/rand"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
)

// TestProtocolStorm drives the full protocol stack through randomized
// failure storms on a loaded torus: many connections with traffic, a mix of
// link and node crashes (some repaired), across all three schemes and both
// priority mechanisms. The test asserts global soundness rather than exact
// outcomes: no panics, resource-plane invariants hold at every checkpoint,
// and connections whose channels survived are still carrying data.
func TestProtocolStorm(t *testing.T) {
	for _, tc := range []struct {
		name string
		tune func(*Config)
	}{
		{"scheme3", func(c *Config) {}},
		{"scheme1", func(c *Config) { c.Scheme = Scheme1 }},
		{"scheme2", func(c *Config) { c.Scheme = Scheme2 }},
		{"delayed", func(c *Config) { c.PriorityDelayUnit = sim.Duration(2 * time.Millisecond) }},
		{"preempt", func(c *Config) { c.AllowPreemption = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := topology.NewTorus(6, 6, 100)
			eng := sim.New(1)
			mgr := core.NewManager(g, core.DefaultConfig())
			rng := rand.New(rand.NewSource(7))
			conns := randomConns(mgr, rng, 80, 6)
			cfg := DefaultConfig()
			cfg.RejoinTimeout = sim.Duration(700 * time.Millisecond)
			cfg.RejoinProbeDelay = sim.Duration(80 * time.Millisecond)
			tc.tune(&cfg)
			// A storm run is cut off at an arbitrary instant, so claims of
			// activations still in flight are legitimately outstanding.
			p := cfg.Conformance(g.Link(0).Capacity)
			p.AllowOutstandingClaims = true
			net := newChecked(t, eng, NewSimTransport(), mgr, cfg, p)
			startTraffic(t, net, 200, conns[:10]...)
			// The storm: 12 failures over 3 seconds; a third get repaired.
			for i := 0; i < 12; i++ {
				at := sim.Duration(100+250*i) * sim.Duration(time.Millisecond)
				i := i
				eng.Schedule(at, func() {
					if i%3 == 0 {
						v := topology.NodeID(rng.Intn(36))
						net.FailNode(v)
						if i%6 == 0 {
							eng.Schedule(150*time.Millisecond, func() { net.RepairNode(v) })
						}
					} else {
						l := topology.LinkID(rng.Intn(g.NumLinks()))
						net.FailLink(l)
						if i%2 == 0 {
							eng.Schedule(150*time.Millisecond, func() { net.RepairLink(l) })
						}
					}
				})
			}
			checkpoints := 0
			for tick := 1; tick <= 8; tick++ {
				eng.Schedule(sim.Duration(tick)*sim.Duration(500*time.Millisecond), func() {
					if err := mgr.Network().CheckInvariants(); err != nil {
						t.Errorf("checkpoint: %v", err)
					}
					checkpoints++
				})
			}
			eng.RunFor(6 * time.Second)
			if checkpoints != 8 {
				t.Fatalf("checkpoints = %d", checkpoints)
			}
			if err := mgr.Network().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := mgr.CheckMuxInvariants(); err != nil {
				t.Fatal(err)
			}
			st := net.Stats()
			if st.DataSent == 0 || st.DataDelivered == 0 {
				t.Fatalf("no data flowed: %+v", st)
			}
			if st.ReportsGenerated == 0 || st.ActivationsStarted == 0 {
				t.Fatalf("storm produced no protocol activity: %+v", st)
			}
			// Pool balance: every pooled payload checked out of the frame
			// pool or data-box free list is accounted for inside the
			// transport (queued, serializing, or propagating) — packets the
			// scheduler dropped on down links and overflowing queues must
			// have returned their buffers and boxes rather than leaked.
			tr := net.Transport().(*SimTransport)
			framesIn, dataIn := tr.InTransit()
			framesOut, dataOut := net.PoolOutstanding()
			if framesOut != framesIn {
				t.Fatalf("frame-buffer leak: %d checked out of pool, %d in transit", framesOut, framesIn)
			}
			if dataOut != dataIn {
				t.Fatalf("data-box leak: %d checked out, %d in transit", dataOut, dataIn)
			}
			// Every surviving connection is structurally sound: its
			// channels exist in the registry with consistent roles.
			for _, c := range mgr.Connections() {
				if c.Primary != nil && c.Primary.Role != rtchan.RolePrimary {
					t.Fatalf("connection %d primary role %v", c.ID, c.Primary.Role)
				}
				for _, b := range c.Backups {
					if b.Role != rtchan.RoleBackup {
						t.Fatalf("connection %d backup role %v", c.ID, b.Role)
					}
				}
			}
		})
	}
}

// randomConns makes attempts at connections between random node pairs, each
// with one backup of multiplexing degree 1..maxDegree, and returns those the
// resource plane admitted.
func randomConns(mgr *core.Manager, rng *rand.Rand, attempts, maxDegree int) []*core.DConnection {
	n := mgr.Graph().NumNodes()
	var conns []*core.DConnection
	for i := 0; i < attempts; i++ {
		s, d := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
		if s == d {
			continue
		}
		if c, err := mgr.Establish(s, d, rtchan.DefaultSpec(), []int{1 + rng.Intn(maxDegree)}); err == nil {
			conns = append(conns, c)
		}
	}
	return conns
}
