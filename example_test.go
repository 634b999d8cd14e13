package bcp_test

// Executable documentation for the public API. Each example is verified by
// `go test` against its expected output.

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp"
)

// Establishing a dependable connection and inspecting its channels.
func ExampleManager_Establish() {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())

	conn, err := mgr.Establish(0, 36, bcp.DefaultSpec(), []int{1})
	if err != nil {
		fmt.Println("rejected:", err)
		return
	}
	fmt.Printf("primary hops: %d\n", conn.Primary.Path.Hops())
	fmt.Printf("backups: %d (degree %d)\n", len(conn.Backups), conn.Degrees[0])
	fmt.Printf("backup hops: %d\n", conn.Backups[0].Path.Hops())
	// Output:
	// primary hops: 8
	// backups: 1 (degree 1)
	// backup hops: 8
}

// A transactional failure trial: what fraction of failed primaries would
// recover instantly via their backups?
func ExampleTrialView_Trial() {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s != d {
				if _, err := mgr.Establish(bcp.NodeID(s), bcp.NodeID(d), bcp.DefaultSpec(), []int{1}); err != nil {
					fmt.Println("unexpected rejection")
					return
				}
			}
		}
	}
	stats := mgr.NewTrialView().Trial(bcp.SingleNode(27), bcp.OrderByConn, nil)
	fmt.Printf("R_fast = %.2f\n", float64(stats.FastRecovered)/float64(stats.FailedPrimaries))
	// Output:
	// R_fast = 1.00
}

// The multiplexing mathematics of §3.2: two backups share spare bandwidth
// when their primaries share fewer components than the multiplexing degree.
func ExampleSimultaneousActivation() {
	lambda := 1e-4
	s := bcp.SimultaneousActivation(lambda, 9, 9, 3) // primaries share 3 components
	nuStrict := bcp.NuForDegree(lambda, 3)           // "mux=3"
	nuLoose := bcp.NuForDegree(lambda, 6)            // "mux=6"
	fmt.Printf("multiplexed at mux=3: %v\n", s < nuStrict)
	fmt.Printf("multiplexed at mux=6: %v\n", s < nuLoose)
	// Output:
	// multiplexed at mux=3: false
	// multiplexed at mux=6: true
}

// Running the message-level protocol: crash a link and observe recovery.
func ExampleNewProtocol() {
	g := bcp.NewTorus(8, 8, 200)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	conn, _ := mgr.Establish(0, 36, bcp.DefaultSpec(), []int{1})

	eng := bcp.NewEngine(1)
	proto := bcp.NewProtocol(eng, mgr, bcp.DefaultProtocolConfig())
	if err := proto.StartTraffic(conn.ID, 1000); err != nil {
		fmt.Println(err)
		return
	}
	eng.At(bcp.Time(100*time.Millisecond), func() {
		proto.FailLink(conn.Primary.Path.Links()[3])
	})
	eng.RunFor(time.Second)

	switches := proto.SourceSwitches(conn.ID)
	fmt.Printf("recovered: %v\n", len(switches) == 1)
	fmt.Printf("on backup: %v\n", conn.Primary.Path.Hops() == 8)
	// Output:
	// recovered: true
	// on backup: true
}

// Routing: the paper's sequential disjoint method versus max-flow.
func ExampleRouter_SequentialDisjointPaths() {
	g := bcp.NewTorus(8, 8, 200)
	paths := bcp.NewRouter(g).SequentialDisjointPaths(0, 36, 3, bcp.RoutingConstraint{})
	for i, p := range paths {
		fmt.Printf("channel %d: %d hops\n", i, p.Hops())
	}
	// Output:
	// channel 0: 8 hops
	// channel 1: 8 hops
	// channel 2: 8 hops
}

// The combinatorial reliability model of §3.3.
func ExamplePr() {
	lambda := 1e-4
	noBackup := bcp.Pr(lambda, 17, nil)
	oneBackup := bcp.Pr(lambda, 17, []bcp.BackupInfo{{Components: 17, PMuxFail: 0}})
	fmt.Printf("without backup: %.6f\n", noBackup)
	fmt.Printf("with backup:    %.6f\n", oneBackup)
	// Output:
	// without backup: 0.998301
	// with backup:    0.999997
}
