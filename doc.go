// Package bcp implements the Backup Channel Protocol of Han and Shin,
// "Fast Restoration of Real-Time Communication Service from Component
// Failures in Multi-hop Networks" (SIGCOMM 1997): dependable real-time
// connections built from a primary channel plus cold-standby backup
// channels whose spare bandwidth is shared by backup multiplexing.
//
// The package is a facade over the implementation packages:
//
//   - topology generation and routing (torus, mesh, and friends; shortest
//     and component-disjoint paths)
//   - the resource plane: per-link bandwidth accounts, admission control,
//     and the backup-multiplexing engine with per-connection multiplexing
//     degrees (the paper's fault-tolerance QoS knob)
//   - failure trials measuring the fast-recovery ratio R_fast, and the
//     mutating recovery path with spare-pool reconfiguration
//   - the message-level protocol engine: failure reports, the three
//     channel-switching schemes, spare-bandwidth claims, priority-based
//     activation (delayed and preemptive), soft-state rejoin, all over
//     per-link real-time control channels inside a deterministic
//     discrete-event simulation
//   - the experiment harness regenerating every table and figure of the
//     paper's evaluation (see EXPERIMENTS.md)
//
// # Quick start
//
//	g := bcp.NewTorus(8, 8, 200)
//	mgr := bcp.NewManager(g, bcp.DefaultConfig())
//
//	// A dependable connection: 1 Mbps, one disjoint backup that shares
//	// spare bandwidth with backups whose primaries share no components
//	// (mux degree 1 = survives any single component failure).
//	conn, err := mgr.Establish(0, 36, bcp.DefaultSpec(), []int{1})
//	if err != nil { ... }
//
//	// What happens if a link on the primary fails? A view trials read-only
//	// over the manager's plan; hold one per goroutine.
//	view := mgr.NewTrialView()
//	stats := view.Trial(bcp.SingleLink(conn.Primary.Path.Links()[0]), bcp.OrderByConn, nil)
//	fmt.Println(stats.RFast()) // 1: the backup activates
//
// For message-level runs (recovery delays, rejoin, priorities) see
// NewEngine/NewProtocol, and the two runnable programs, examples/quickstart
// and examples/priority.
package bcp
