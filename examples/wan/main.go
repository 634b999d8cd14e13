// WAN: BCP on an irregular wide-area topology. The paper's scalability and
// interoperability argument (§6) is that BCP needs no global knowledge —
// backup multiplexing is hop-by-hop and control messages follow channel
// paths — so it runs unchanged on arbitrary graphs. This example builds a
// random 40-node WAN, negotiates reliability targets per connection
// (§3.4 scheme 2), runs the full message-level protocol with heartbeat
// failure detection (no failure oracle), and crashes a busy router.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/rtcl/bcp"
)

func main() {
	g := bcp.NewRandom(40, 3.6, 155, 11) // 155 Mbps "OC-3" trunks
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	rng := bcp.NewRand(4)

	// Negotiate 60 connections with an explicit reliability target each.
	var conns []*bcp.DConnection
	established := 0
	for len(conns) < 60 {
		src := bcp.NodeID(rng.Intn(g.NumNodes()))
		dst := bcp.NodeID(rng.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		spec := bcp.DefaultSpec()
		spec.Bandwidth = 1 + float64(rng.Intn(4))
		conn, err := mgr.EstablishWithPr(src, dst, spec, 0.99995, 2, 6)
		if err != nil {
			continue // some pairs lack disjoint capacity on a sparse WAN
		}
		conns = append(conns, conn)
		established++
	}
	fmt.Printf("negotiated %d connections at Pr >= 0.99995 on %s\n", established, g.Name())
	fmt.Printf("network load %.2f%%, spare %.2f%%\n\n",
		mgr.Network().NetworkLoad()*100, mgr.Network().SpareFraction()*100)

	// Pick the busiest transit router (most channels through it).
	busiest, busiestCount := bcp.NodeID(0), 0
	for v := 0; v < g.NumNodes(); v++ {
		if c := len(mgr.Network().ChannelsAtNode(bcp.NodeID(v))); c > busiestCount {
			busiest, busiestCount = bcp.NodeID(v), c
		}
	}
	fmt.Printf("crashing the busiest router: node %d (%d channels through it)\n", busiest, busiestCount)

	// Full protocol run with heartbeat-based detection: the failure is not
	// announced; neighbors notice the silence.
	eng := bcp.NewEngine(1)
	cfg := bcp.DefaultProtocolConfig()
	cfg.HeartbeatInterval = 5 * time.Millisecond
	proto := bcp.NewProtocol(eng, mgr, cfg)
	for _, c := range conns {
		if err := proto.StartTraffic(c.ID, 200); err != nil {
			log.Fatal(err)
		}
	}
	failAt := bcp.Time(200 * time.Millisecond)
	eng.At(failAt, func() { proto.FailNode(busiest) })
	eng.RunFor(2 * time.Second)

	st := proto.Stats()
	fmt.Printf("\nheartbeat detections: %d   failure reports: %d   activations: %d\n",
		st.Detections, st.ReportsGenerated, st.ActivationsStarted)

	var delays []time.Duration
	recovered, unaffected, lost := 0, 0, 0
	for _, c := range conns {
		if c.Src == busiest || c.Dst == busiest {
			lost++ // end node died: unrecoverable by any scheme
			continue
		}
		sw := proto.SourceSwitches(c.ID)
		switch {
		case len(sw) > 0:
			recovered++
			delays = append(delays, time.Duration(sw[len(sw)-1].Sub(failAt)))
		case c.Primary != nil && !c.Primary.Path.ContainsNode(busiest):
			unaffected++
		default:
			lost++
		}
	}
	fmt.Printf("connections: %d unaffected, %d recovered fast, %d lost (incl. end-node casualties)\n",
		unaffected, recovered, lost)
	if len(delays) > 0 {
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		fmt.Printf("recovery delay (detection + reporting + switch): median %v, max %v\n",
			delays[len(delays)/2].Round(time.Millisecond),
			delays[len(delays)-1].Round(time.Millisecond))
	}
	fmt.Printf("data: sent=%d delivered=%d lost=%d\n", st.DataSent, st.DataDelivered, st.DataSent-st.DataDelivered)
}
