// Command bcplive boots a BCP network live — every daemon an actor goroutine
// on the wall-clock runtime, traffic crossing in-memory pipes — injects a
// primary-link failure, and reports the measured recovery delay against the
// paper's §5 Γ bound.
//
// Usage:
//
//	bcplive                        # 3x3 mesh, pipe transport, 5 trials
//	bcplive -rows 4 -cols 4        # bigger mesh
//	bcplive -rate 1000 -trials 10  # heavier traffic, more trials
//
// Each trial establishes one D-connection corner to corner (primary plus one
// disjoint backup), streams data, crashes the middle link of the primary, and
// reads the recovery off the event stream (trace.Recoveries), on the wall
// clock from the crash: Γ, when the source switched to the backup; the
// disruption, when the first data on the backup reached the destination; and
// the five stages between (detect, report, activate, switch, resume). Γ is
// compared to the §5.3 bound for the recovery's own K and b, with D_max the
// protocol configuration's HopBound for the mesh's link capacity. On a quiet
// machine live Γ lands inside the bound; scheduler jitter (unlike the
// simulator, the OS is part of the system) can push it over — the tool
// reports, it does not assert. Beside them it prints how late a 200 µs timer
// fired on the runtime during the trial (fired − due): every wait on the
// recovery path is a timer, so that column is the host's share of the
// milliseconds and the rest is the protocol's.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/rtcl/bcp"
	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/trace"
)

type trialResult struct {
	rec  trace.Recovery
	late []time.Duration // timer probe: fired - due, sorted
}

// probeDelay is the timer-lateness probe's period, the benchmark's.
const probeDelay = 200 * time.Microsecond

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile reads the q-quantile of sorted d (0 when empty).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d[int(q*float64(len(d)-1))]
}

func main() {
	rows := flag.Int("rows", 3, "mesh rows")
	cols := flag.Int("cols", 3, "mesh columns")
	capacity := flag.Float64("capacity", 10, "link capacity in Mbps")
	rate := flag.Float64("rate", 500, "data messages per second")
	trials := flag.Int("trials", 5, "failure trials (fresh network each)")
	seed := flag.Int64("seed", 1, "runtime RNG seed")
	flag.Parse()

	cfg := bcp.DefaultProtocolConfig()
	// The Γ bound assumes immediate detection; keep the comparison honest.
	cfg.DetectionLatency = 0

	var results []trialResult
	for i := 0; i < *trials; i++ {
		r, err := runTrial(*rows, *cols, *capacity, *rate, *seed+int64(i), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcplive: trial %d: %v\n", i, err)
			os.Exit(1)
		}
		results = append(results, r)
	}

	dmax := cfg.HopBound(*capacity)
	fmt.Printf("bcplive: %dx%d mesh, pipe transport, %.0f msg/s, D_max %v\n\n", *rows, *cols, *rate, dmax)
	gammas := make([]time.Duration, 0, len(results))
	var late []time.Duration
	for i, r := range results {
		bound := conformance.GammaBound(dmax, r.rec.Hops, r.rec.Backups)
		within := "≤"
		if r.rec.Gamma() > bound {
			within = "> (wall-clock jitter)"
		}
		fmt.Printf("trial %d: Γ %v %s bound %v (K=%d, b=%d); disruption %v =", i, r.rec.Gamma(), within, bound, r.rec.Hops, r.rec.Backups, r.rec.Disruption())
		for k, name := range trace.StageNames {
			fmt.Printf(" %s %v", name, r.rec.Stage(k))
		}
		fmt.Printf("; timer late p50/p95 %v/%v\n", quantile(r.late, 0.5), quantile(r.late, 0.95))
		gammas = append(gammas, r.rec.Gamma())
		late = append(late, r.late...)
	}
	sortDurations(gammas)
	sortDurations(late)
	fmt.Printf("\nΓ p50 %v, max %v over %d trials\n",
		gammas[len(gammas)/2], gammas[len(gammas)-1], len(gammas))
	fmt.Printf("timer lateness (%v probe, fired − due): p50 %v, p95 %v over %d fires\n",
		probeDelay, quantile(late, 0.5), quantile(late, 0.95), len(late))
}

// runTrial boots one fresh live network, crashes the primary's middle link,
// and returns the recovery its event stream derives.
func runTrial(rows, cols int, capacity, rate float64, seed int64, cfg bcp.ProtocolConfig) (trialResult, error) {
	g := bcp.NewMesh(rows, cols, capacity)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	paths := mgr.Router().SequentialDisjointPaths(0, bcp.NodeID(g.NumNodes()-1), 2, bcp.RoutingConstraint{})
	if len(paths) < 2 {
		return trialResult{}, fmt.Errorf("no disjoint corner-to-corner paths")
	}
	conn, err := mgr.EstablishOnPaths(bcp.DefaultSpec(), paths[0], paths[1:2], []int{1})
	if err != nil {
		return trialResult{}, err
	}

	recs := &trace.Recoveries{}
	cfg.Sink = recs
	rt := bcp.NewRealtimeRuntime(seed)
	rt.StartActors(g.NumNodes(), 1024)
	tr := bcp.NewPipeTransport(rt.Post, 1024)
	defer rt.Stop()
	defer tr.Close()

	var net *bcp.Protocol
	rt.Exec(func() { net = bcp.NewProtocolOn(rt, tr, mgr, cfg) })
	var startErr error
	rt.Exec(func() { startErr = net.StartTraffic(conn.ID, rate) })
	if startErr != nil {
		return trialResult{}, startErr
	}

	// The lateness probe: a timer that re-arms itself probeDelay ahead and
	// records fired - due, from now until the trial has its answer.
	var late []time.Duration
	var due bcp.Time
	probing := true
	var probe func()
	probe = func() {
		if !probing {
			return
		}
		late = append(late, rt.Now().Sub(due))
		due = rt.Now().Add(probeDelay)
		rt.At(due, probe)
	}
	rt.Exec(func() {
		due = rt.Now().Add(probeDelay)
		rt.At(due, probe)
	})

	wait := func(what string, cond func() bool) error {
		limit := time.Now().Add(10 * time.Second)
		for {
			var ok bool
			rt.Exec(func() { ok = cond() })
			if ok {
				return nil
			}
			if time.Now().After(limit) {
				return fmt.Errorf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if err := wait("pre-failure data", func() bool { return net.Stats().DataDelivered >= 20 }); err != nil {
		return trialResult{}, err
	}

	links := conn.Primary.Path.Links()
	rt.Exec(func() { net.FailLink(links[len(links)/2]) })
	if err := wait("data resumption", func() bool { return len(recs.Done) > 0 }); err != nil {
		return trialResult{}, err
	}

	var r trialResult
	rt.Exec(func() {
		probing = false
		r = trialResult{rec: recs.Done[0], late: late}
	})
	sortDurations(r.late)
	return r, nil
}
