// Command bench is the repository benchmark: four workloads over the BCP
// stack, each measured end to end in an untraced pass and layer by layer in
// a traced pass. See README.md in this directory for what each workload and
// metric means and why the estimators are what they are.
//
// The driver contract (BENCHMARK.json at the repository root) runs
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload the command
// runs every workload, untraced then traced; --repeat 2 does that twice and
// fails when two runs of the same commit disagree by more than a metric's
// bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd lists the metrics of the untraced pass. The driver requires every
// one of them on every workload, so each is defined per workload in terms of
// that workload's operation (README.md, "End-to-end metrics"):
//
//	establish_churn   op = Manager.Establish (+ Teardown for the cycle)
//	trial_sweep       op = TrialView.Trial; cycle = one sweep of every single failure
//	storm_node_crash  op = crash -> data resumed at the destination, simulated clock;
//	                  cycle = crash + repair phase, wall clock
//	live_node_crash   op = crash -> data resumed at the destination, wall clock;
//	                  cycle = one trial
//
// op_p50_us and op_p95_us are the operation's latency on the clock its user
// lives on; ops_per_s is always operations per second of the host's time.
var endToEnd = []metricDef{
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"success_ratio", "ratio", "higher", 0.02},
	{"heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

var workloadNames = []string{"establish_churn", "trial_sweep", "storm_node_crash", "live_node_crash"}

// specific lists the end-to-end metrics that exist on some workloads only:
// the paper's pair (gamma = crash -> source switch, disruption = crash -> data
// at the destination), what the switchover cost, and the sweep's r_fast. The
// untraced pass prints them beside the universal seven and -repeat gates them,
// but BENCHMARK.json cannot carry them: the driver wants each of its
// end-to-end metrics on every workload. Bound 0 marks a metric that is exact
// for a given seed and window, so two runs must agree to the last bit.
var specific = map[string][]metricDef{
	"trial_sweep": {
		{"r_fast", "ratio", "higher", 0},
	},
	"storm_node_crash": {
		{"gamma_p50_ms", "ms", "lower", 0},
		{"gamma_p95_ms", "ms", "lower", 0},
		{"disruption_p50_ms", "ms", "lower", 0},
		{"disruption_p95_ms", "ms", "lower", 0},
		{"restored_ratio", "ratio", "higher", 0},
		{"msgs_lost_per_source", "count", "lower", 0},
		{"crash_phase_p50_ms", "ms", "lower", 0.25},
		{"repair_phase_p50_ms", "ms", "lower", 0.25},
	},
	"live_node_crash": {
		{"gamma_p50_ms", "ms", "lower", 0.10},
		{"gamma_p95_ms", "ms", "lower", 0.10},
		{"disruption_p50_ms", "ms", "lower", 0.10},
		{"disruption_p95_ms", "ms", "lower", 0.10},
		{"restored_ratio", "ratio", "higher", 0.02},
		{"msgs_lost_per_source", "count", "lower", 0.10},
	},
}

// untracedMetrics is what the untraced pass of a workload prints.
func untracedMetrics(workload string) []metricDef {
	return append(endToEnd[:len(endToEnd):len(endToEnd)], specific[workload]...)
}

// value is one printed metric.
type value struct {
	name, unit string
	v          float64
	n          int    // samples behind the value
	note       string // pooled median/quartiles, reference columns
}

// report is what one pass of one workload produced.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	checks    []string // correctness checks that failed; any entry is fatal
	values    []value
	spans     []span
}

func (r *report) put(name, unit string, v float64, n int, note string) {
	r.values = append(r.values, value{name, unit, v, n, note})
}

func (r *report) failCheck(format string, args ...interface{}) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// get returns the named metric's value, NaN when the pass did not print it.
func (r *report) get(name string) float64 {
	for _, v := range r.values {
		if v.name == name {
			return v.v
		}
	}
	return math.NaN()
}

// runConfig is one invocation's knobs.
type runConfig struct {
	seed   int64
	window time.Duration
	// heapBase is the live heap before the workload's set-up, so heap_mb
	// weighs the set-up's product and not whatever earlier passes left.
	heapBase float64
}

// setupHeapMB returns the live heap the set-up added.
func (c runConfig) setupHeapMB() float64 { return liveHeapMB() - c.heapBase }

// Segments of the calibrated and quiet estimators, as short as still holds
// the 20 samples a median needs when the box is at its slowest: a quarter
// second where it then holds thousands of operations, half a second for a
// sweep of 7 to 15 ms, a second for a storm cycle of 18 to 35 ms and a live
// trial of 35 ms.
const (
	fastSegment = 250 * time.Millisecond
	slowSegment = 500 * time.Millisecond
	longSegment = time.Second
)

// setups is how many times a workload sets up at each end of the window: five
// from 20 s up, fewer in proportion for a shorter window, so that a smoke run
// sets up once.
func (c runConfig) setups() int {
	return max(1, int(5*min(1, c.window.Seconds()/20)))
}

// iters scales an isolated-layer kernel's iteration count with the window, so
// a short smoke run stays short; from a 10 s window up it is base.
func (c runConfig) iters(base int) int {
	n := int(float64(base) * min(1, c.window.Seconds()/10))
	return max(n, base/100, 1)
}

type workloadFunc func(cfg runConfig, tr *tracer) *report

var workloads = map[string]workloadFunc{
	"establish_churn":  runEstablishChurn,
	"trial_sweep":      runTrialSweep,
	"storm_node_crash": runStormNodeCrash,
	"live_node_crash":  runLiveNodeCrash,
}

// runPass executes one pass and normalises its report against the metric
// list the pass must print: a missing or non-finite end-to-end metric is a
// failed check; a per-layer metric the workload does not exercise reads 0.
func runPass(name string, cfg runConfig, traced bool) *report {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	cfg.heapBase = liveHeapMB()
	rep := workloads[name](cfg, tr)
	rep.workload, rep.traced = name, traced
	if traced {
		rep.spans = tr.spans
	}
	want := untracedMetrics(name)
	if traced {
		want = perLayer
	}
	byName := make(map[string]int)
	for _, v := range rep.values {
		byName[v.name]++
	}
	for _, d := range want {
		switch c := byName[d.name]; {
		case c > 1:
			rep.failCheck("metric %s printed %d times", d.name, c)
		case c == 0 && traced:
			rep.put(d.name, d.unit, 0, 0, "layer not exercised by this workload")
		case c == 0:
			rep.failCheck("metric %s missing", d.name)
		}
	}
	known := make(map[string]bool, len(want))
	for _, d := range want {
		known[d.name] = true
	}
	for _, v := range rep.values {
		if !known[v.name] {
			rep.failCheck("metric %s is not one this pass prints", v.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			rep.failCheck("metric %s is not finite", v.name)
		}
	}
	if rep.attempted < 1 {
		rep.failCheck("no operation attempted")
	}
	return rep
}

// header records the environment a run's numbers belong to.
func printHeader(w io.Writer, cfg runConfig) {
	fmt.Fprintf(w, "bench: nproc=%d GOMAXPROCS=%d %s seed=%d window=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.window)
}

func passName(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

// printHuman writes the table a person reads; it goes to standard error so
// standard output stays machine-readable.
func printHuman(w io.Writer, rep *report) {
	fmt.Fprintf(w, "%s (%s): attempted=%d failed=%d failed_share=%.6f\n",
		rep.workload, passName(rep.traced), rep.attempted, rep.failed,
		float64(rep.failed)/math.Max(1, float64(rep.attempted)))
	for _, v := range rep.values {
		fmt.Fprintf(w, "  %-34s %16.6f %-6s n=%-8d %s\n", v.name, v.v, v.unit, v.n, v.note)
	}
	if rep.traced && len(rep.spans) > 0 {
		printLayerTable(w, rep.workload, rep.spans)
	}
	for _, c := range rep.checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

// line is one machine-readable metric line.
type line struct {
	Workload string  `json:"workload"`
	Pass     string  `json:"pass"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
}

func printLines(w io.Writer, rep *report) {
	enc := json.NewEncoder(w)
	for _, v := range rep.values {
		val := v.v
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = -1
		}
		_ = enc.Encode(line{rep.workload, passName(rep.traced), v.name, v.unit, val, v.n})
	}
}

// result is the driver's last-line object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result keeps the metrics BENCHMARK.json names for the pass and nothing else.
func (rep *report) result() result {
	defs := endToEnd
	if rep.traced {
		defs = perLayer
	}
	res := result{Correct: len(rep.checks) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]resultValue, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = resultValue{rep.get(d.name), d.unit}
	}
	return res
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of establish_churn, trial_sweep, storm_node_crash, live_node_crash; empty runs all four, untraced then traced")
	seed := fs.Int64("seed", 1, "seed for pair sampling, failure order, engine and runtime")
	seconds := fs.Float64("seconds", 28, "measured window per pass, seconds")
	traceOn := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	spansPath := fs.String("spans", "", "write the traced pass's spans to this file, one JSON object per line")
	repeat := fs.Int("repeat", 1, "with no -workload: run the suite this many times and compare end-to-end metrics between runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second))}
	if cfg.window <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be positive")
		return 2
	}
	printHeader(stderr, cfg)
	var spansOut *spanFile
	if *spansPath != "" {
		var err error
		if spansOut, err = createSpanFile(*spansPath); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	code := run(cfg, *workload, *traceOn != 0, *repeat, spansOut, stdout, stderr)
	if spansOut != nil {
		if err := spansOut.close(); err != nil {
			fmt.Fprintf(stderr, "bench: write spans: %v\n", err)
			return 1
		}
	}
	return code
}

// run dispatches to the suite or to one pass of one workload.
func run(cfg runConfig, workload string, traced bool, repeat int, spansOut *spanFile, stdout, stderr io.Writer) int {
	if workload == "" {
		return runSuite(cfg, repeat, spansOut, stdout, stderr)
	}
	if workloads[workload] == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", workload)
		return 2
	}
	rep := runPass(workload, cfg, traced)
	printHuman(stderr, rep)
	if rep.traced && spansOut != nil {
		if err := spansOut.append(rep.spans); err != nil {
			fmt.Fprintf(stderr, "bench: write spans: %v\n", err)
			return 1
		}
	}
	printLines(stdout, rep)
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if len(rep.checks) > 0 {
		return 1
	}
	return 0
}

// runSuite runs every workload, untraced then traced, repeat times, and
// compares the end-to-end metrics of consecutive repeats against their
// bounds. The summary object printed last carries no performance claim: this
// command measures, it does not compare commits.
func runSuite(cfg runConfig, repeat int, spansOut *spanFile, stdout, stderr io.Writer) int {
	ok := true
	rounds := make([]map[string]*report, repeat)
	for r := 0; r < repeat; r++ {
		rounds[r] = make(map[string]*report)
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				rep := runPass(name, cfg, traced)
				printHuman(stderr, rep)
				printLines(stdout, rep)
				if len(rep.checks) > 0 {
					ok = false
				}
				if !traced {
					rounds[r][name] = rep
				} else if spansOut != nil {
					if err := spansOut.append(rep.spans); err != nil {
						fmt.Fprintf(stderr, "bench: write spans: %v\n", err)
						ok = false
					}
				}
				rep.spans = nil
			}
		}
	}
	type disagreement struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		A        float64 `json:"a"`
		B        float64 `json:"b"`
		RelDiff  float64 `json:"rel_diff"`
		Bound    float64 `json:"bound"`
		Within   bool    `json:"within"`
	}
	var cmp []disagreement
	for r := 1; r < repeat; r++ {
		fmt.Fprintf(stderr, "repeat %d vs %d: workload metric a b rel_diff bound\n", r, r+1)
		for _, name := range workloadNames {
			for _, d := range untracedMetrics(name) {
				a, b := rounds[r-1][name].get(d.name), rounds[r][name].get(d.name)
				diff := relDiff(a, b)
				within := diff <= d.bound
				verdict := "ok"
				if !within {
					verdict = "DISAGREE"
					ok = false
				}
				fmt.Fprintf(stderr, "  %-18s %-14s %14.6f %14.6f %8.4f %6.2f %s\n", name, d.name, a, b, diff, d.bound, verdict)
				cmp = append(cmp, disagreement{name, d.name, a, b, diff, d.bound, within})
			}
		}
	}
	summary := struct {
		Correct bool           `json:"correct"`
		Claim   *string        `json:"claim"`
		Repeat  int            `json:"repeat"`
		Compare []disagreement `json:"compare,omitempty"`
	}{ok, nil, repeat, cmp}
	out, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !ok {
		return 1
	}
	return 0
}
