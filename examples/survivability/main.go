// Survivability: a miniature of the paper's Table 1 on a 6x6 torus — the
// fast-recovery ratio R_fast and spare-bandwidth cost across multiplexing
// degrees, under single-link, single-node, and double-node failures.
package main

import (
	"fmt"
	"log"

	"github.com/rtcl/bcp"
)

func main() {
	fmt.Println("R_fast on a 6x6 torus (one backup per connection, all node pairs):")
	fmt.Println()
	fmt.Printf("%-18s %8s %8s %8s %8s\n", "", "mux=1", "mux=3", "mux=5", "mux=6")

	type row struct {
		name   string
		values []float64
	}
	rows := []row{{name: "spare bandwidth"}, {name: "1 link failure"},
		{name: "1 node failure"}, {name: "2 node failures"}}

	for _, alpha := range []int{1, 3, 5, 6} {
		g := bcp.NewTorus(6, 6, 200)
		mgr := bcp.NewManager(g, bcp.DefaultConfig())
		if _, rej := bcp.EstablishWorkload(mgr, bcp.AllPairs(g, bcp.DefaultSpec(), []int{alpha})); rej != 0 {
			log.Fatalf("mux=%d: %d connections rejected", alpha, rej)
		}
		rows[0].values = append(rows[0].values, mgr.Network().SpareFraction())

		sweep := func(failures []bcp.Failure) float64 {
			fast, failed := 0, 0
			for _, f := range failures {
				stats := mgr.Trial(f, bcp.OrderByConn, nil)
				fast += stats.FastRecovered
				failed += stats.FailedPrimaries
			}
			if failed == 0 {
				return 1
			}
			return float64(fast) / float64(failed)
		}

		var links, nodes, pairs []bcp.Failure
		for _, l := range g.Links() {
			links = append(links, bcp.SingleLink(l.ID))
		}
		for v := 0; v < g.NumNodes(); v++ {
			nodes = append(nodes, bcp.SingleNode(bcp.NodeID(v)))
			for w := v + 1; w < g.NumNodes(); w++ {
				pairs = append(pairs, bcp.DoubleNode(bcp.NodeID(v), bcp.NodeID(w)))
			}
		}
		rows[1].values = append(rows[1].values, sweep(links))
		rows[2].values = append(rows[2].values, sweep(nodes))
		rows[3].values = append(rows[3].values, sweep(pairs))
	}

	for _, r := range rows {
		fmt.Printf("%-18s", r.name)
		for _, v := range r.values {
			fmt.Printf(" %7.2f%%", v*100)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("mux=1 guarantees recovery from every single failure; mux=3 from every")
	fmt.Println("single link failure — at a fraction of the dedicated-backup cost.")
}
