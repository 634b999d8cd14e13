// Command bcpsim regenerates the paper's tables and figures.
//
// Usage:
//
//	bcpsim -exp table1a            # Table 1(a): torus, single backup
//	bcpsim -exp table1b            # Table 1(b): torus, double backups
//	bcpsim -exp table1c            # Table 1(c): mesh, single backup
//	bcpsim -exp table2a|table2b|table2c
//	bcpsim -exp table3a|table3b    # brute-force multiplexing
//	bcpsim -exp fig9a|fig9b|fig9c  # spare bandwidth vs network load
//	bcpsim -exp fig3               # Markov vs combinatorial reliability
//	bcpsim -exp sec5               # recovery-delay bound validation
//	bcpsim -exp schemes            # failure-reporting scheme comparison
//	bcpsim -exp hotspot            # inhomogeneous-traffic comparison
//	bcpsim -exp severity           # R_fast vs number of simultaneous failures
//	bcpsim -exp scalability        # §6: establishment cost vs network size
//	bcpsim -exp baselines          # BCP vs recover-by-reestablishment (§8)
//	bcpsim -exp all                # everything (slow)
//
// Options:
//
//	-sample N   sample N double-node failures instead of all pairs
//	-lambda F   per-component failure probability (default 1e-4)
//	-seed N     seed for randomized orders/workloads
//	-order O    activation order: conn (default) | priority | random
//	-workers N  worker pool for every failure sweep and figure
//	            (0/1 serial, -1 = GOMAXPROCS); results are identical
//	-json       emit results as JSON instead of paper-style tables
//
// Every table's output at -sample 200 is pinned by
// `go test ./internal/experiment -run GoldenTables`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/experiment"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -help)")
		sample  = flag.Int("sample", 0, "double-node failure sample size (0 = exhaustive)")
		lambda  = flag.Float64("lambda", 1e-4, "per-component failure probability per time unit")
		seed    = flag.Int64("seed", 1, "random seed")
		order   = flag.String("order", "conn", "activation order: conn|priority|random")
		workers = flag.Int("workers", 0, "worker pool for every failure sweep and figure (0/1 = serial, -1 = GOMAXPROCS)")
		asJSON  = flag.Bool("json", false, "emit results as JSON")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	opts := experiment.DefaultOptions()
	opts.Lambda = *lambda
	opts.DoubleNodeSample = *sample
	opts.Seed = *seed
	opts.Workers = *workers
	switch *order {
	case "conn":
		opts.Order = core.OrderByConn
	case "priority":
		opts.Order = core.OrderByPriority
	case "random":
		opts.Order = core.OrderRandom
	default:
		fmt.Fprintf(os.Stderr, "unknown order %q\n", *order)
		os.Exit(2)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiment.IDs
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		res, err := experiment.Run(id, opts)
		if err == nil {
			err = emit(id, res, *asJSON)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcpsim: %v\n", err)
			os.Exit(1)
		}
	}
}

// emit prints one experiment result, as a table or as a JSON document
// tagged with the experiment id.
func emit(id string, res experiment.Renderable, asJSON bool) error {
	if !asJSON {
		fmt.Println(res.Render())
		return nil
	}
	doc := struct {
		Experiment string      `json:"experiment"`
		Result     interface{} `json:"result"`
	}{id, res}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
