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
//	bcpsim -exp ablation           # design-choice ablations (routing, Π rule)
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
//	-workers N  worker pool for failure sweeps and figures
//	            (0/1 serial, -1 = GOMAXPROCS); results are identical
//	-json       emit results as JSON instead of paper-style tables
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
		workers = flag.Int("workers", 0, "worker pool for failure sweeps and figures (0/1 = serial, -1 = GOMAXPROCS)")
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
		ids = []string{"table1a", "table1b", "table1c", "table2a", "table2b", "table2c",
			"table3a", "table3b", "fig9a", "fig9b", "fig9c", "fig3", "sec5", "schemes", "hotspot", "ablation", "severity", "scalability", "baselines"}
	}
	for _, id := range ids {
		if err := run(strings.TrimSpace(id), opts, *asJSON); err != nil {
			fmt.Fprintf(os.Stderr, "bcpsim: %v\n", err)
			os.Exit(1)
		}
	}
}

// renderable pairs an experiment result with its paper-style presentation.
type renderable interface{ Render() string }

// emit prints one experiment result, as a table or as a JSON document
// tagged with the experiment id.
func emit(id string, res renderable, asJSON bool) error {
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

var alphas = []int{1, 3, 5, 6}

func run(id string, opts experiment.Options, asJSON bool) error {
	var res renderable
	switch id {
	case "table1a":
		res = experiment.RunTable1(experiment.Torus8x8, 1, alphas, opts)
	case "table1b":
		res = experiment.RunTable1(experiment.Torus8x8, 2, alphas, opts)
	case "table1c":
		res = experiment.RunTable1(experiment.Mesh8x8, 1, alphas, opts)
	case "table2a":
		res = experiment.RunTable2(experiment.Torus8x8, 1, alphas, opts)
	case "table2b":
		res = experiment.RunTable2(experiment.Torus8x8, 2, alphas, opts)
	case "table2c":
		res = experiment.RunTable2(experiment.Mesh8x8, 1, alphas, opts)
	case "table3a":
		res = table3Result{experiment.RunTable3(experiment.Torus8x8, alphas, opts)}
	case "table3b":
		res = table3Result{experiment.RunTable3(experiment.Mesh8x8, alphas, opts)}
	case "fig9a":
		res = experiment.RunFigure9(experiment.Torus8x8, 1, []int{0, 1, 3, 5, 6}, 256, opts)
	case "fig9b":
		res = experiment.RunFigure9(experiment.Torus8x8, 2, []int{0, 1, 3, 5, 6}, 256, opts)
	case "fig9c":
		res = experiment.RunFigure9(experiment.Mesh8x8, 1, []int{0, 1, 3, 5, 6}, 256, opts)
	case "fig3":
		res = experiment.RunFigure3(4, 6, 1e-5, 100,
			[]float64{1, 10, 100, 1000, 10000, 100000})
	case "sec5":
		res = experiment.RunSection5(opts)
	case "schemes":
		res = experiment.RunSchemeComparison(opts)
	case "hotspot":
		res = experiment.RunHotspot(opts)
	case "ablation":
		res = experiment.RunAblation(opts)
	case "severity":
		res = experiment.RunSeverity(5, 200, opts)
	case "scalability":
		res = experiment.RunScalability(3, opts)
	case "baselines":
		res = experiment.RunBaselineComparison(opts)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return emit(id, res, asJSON)
}

// table3Result wraps Table 3 runs with their brute-force presentation.
type table3Result struct {
	experiment.Table1Result
}

func (r table3Result) Render() string { return experiment.RenderTable3(r.Table1Result) }
