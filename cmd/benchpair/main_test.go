package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONRoundTripsThePrintedReport renders a report the way run prints
// it, appends it twice to a file that already holds another key, and renders
// each decoded copy again: the JSON must carry every printed byte, and
// appending must keep what the file held.
func TestJSONRoundTripsThePrintedReport(t *testing.T) {
	r := report{Base: "HEAD~1", BaseCommit: "0123456789abcdef", HeadCommit: "fedcba9876543210", Dirty: true,
		Workload: "establish_churn", Seconds: 28}
	for _, m := range []metricSpec{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
		{Name: "success_ratio", Unit: "ratio", Better: "higher", Bound: 0.02},
	} {
		r.Metrics = append(r.Metrics, summary{metricSpec: m})
	}
	for i := 1; i <= 10; i++ {
		p := pair{Seed: i, First: "base"}
		if i%2 == 0 {
			p.First = "change"
		}
		p.Base = sideRun{Attempted: 1000 + i, Values: map[string]float64{
			"ops_per_s": 100 + float64(i%3), "op_p50_us": 7.5 + float64(i)/100, "success_ratio": 1}}
		p.Change = sideRun{Attempted: 1100 + i, Failed: i % 2, Values: map[string]float64{
			"ops_per_s": 108 + float64(i%4), "op_p50_us": 6.9 + float64(i)/90, "success_ratio": 1}}
		r.Pairs = append(r.Pairs, p)
	}
	r.summarize()
	if v := r.Metrics[0].Verdict; v != "better" {
		t.Fatalf("ops_per_s verdict %q, want better", v)
	}
	if m := r.Metrics[2]; m.Decided != 0 || m.Verdict != "same" {
		t.Fatalf("tied metric decided %d, verdict %q", m.Decided, m.Verdict)
	}
	var printed bytes.Buffer
	render(&printed, &r)

	file := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(file, []byte(`{"notes": ["kept"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := appendReport(file, &r); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Notes []string `json:"notes"`
		Runs  []report `json:"runs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Notes) != 1 || doc.Notes[0] != "kept" || len(doc.Runs) != 2 {
		t.Fatalf("file holds notes %v and %d runs, want [kept] and 2", doc.Notes, len(doc.Runs))
	}
	for i := range doc.Runs {
		var again bytes.Buffer
		render(&again, &doc.Runs[i])
		if again.String() != printed.String() {
			t.Fatalf("run %d renders differently from its JSON:\n%s\nprinted:\n%s", i, again.String(), printed.String())
		}
	}
}

// TestTrajectoryChainsTheCommittedFiles reads the repository's own
// BENCH_pr35.json, BENCH_pr38.json, BENCH_pr39.json, BENCH_pr40.json and
// BENCH_pr45.json, given out of order: per workload the PRs' ratios come
// in PR order with their running product, and each drift audit (a run
// against another base than the file's first) is printed beside the chain
// instead of in it.
func TestTrajectoryChainsTheCommittedFiles(t *testing.T) {
	path := func(f string) string { return filepath.Join("..", "..", f) }
	var out bytes.Buffer
	if err := trajectory(&out, []string{path("BENCH_pr38.json"), path("BENCH_pr45.json"), path("BENCH_pr40.json"), path("BENCH_pr39.json"), path("BENCH_pr35.json")}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// row is the line of file's longest run of workload against the file's
	// own base, with chain as the running product.
	row := func(pr int, file, workload string, chain float64) (string, float64) {
		t.Helper()
		bf, err := readBenchFile(path(file))
		if err != nil {
			t.Fatal(err)
		}
		var best *report
		for i, r := range bf.runs {
			if r.Workload == workload && r.BaseCommit == bf.runs[0].BaseCommit && (best == nil || len(r.Pairs) >= len(best.Pairs)) {
				best = &bf.runs[i]
			}
		}
		if best == nil {
			t.Fatalf("%s has no %s run against its base", file, workload)
		}
		for _, m := range best.Metrics {
			if m.Name == trajectoryMetric {
				chain *= m.Ratio
				return fmt.Sprintf("  %-4d %-12.12s %-12.12s %8.4f %3d/%-3d  %-10s %8.4f  %s\n",
					pr, best.BaseCommit, best.HeadCommit, m.Ratio, m.Wins, m.Decided, m.Verdict, chain, file), chain
			}
		}
		t.Fatalf("%s's %s run has no %s summary", file, workload, trajectoryMetric)
		return "", 0
	}
	churn35, chain := row(35, "BENCH_pr35.json", "establish_churn", 1)
	churn38, chain := row(38, "BENCH_pr38.json", "establish_churn", chain)
	churn39, chain := row(39, "BENCH_pr39.json", "establish_churn", chain)
	churn40, chain := row(40, "BENCH_pr40.json", "establish_churn", chain)
	churn45, _ := row(45, "BENCH_pr45.json", "establish_churn", chain)
	storm35, chain := row(35, "BENCH_pr35.json", "storm_node_crash", 1)
	storm38, chain := row(38, "BENCH_pr38.json", "storm_node_crash", chain)
	storm39, chain := row(39, "BENCH_pr39.json", "storm_node_crash", chain)
	storm40, chain := row(40, "BENCH_pr40.json", "storm_node_crash", chain)
	storm45, _ := row(45, "BENCH_pr45.json", "storm_node_crash", chain)
	trial35, chain := row(35, "BENCH_pr35.json", "trial_sweep", 1)
	trial38, chain := row(38, "BENCH_pr38.json", "trial_sweep", chain)
	trial39, chain := row(39, "BENCH_pr39.json", "trial_sweep", chain)
	trial40, chain := row(40, "BENCH_pr40.json", "trial_sweep", chain)
	trial45, _ := row(45, "BENCH_pr45.json", "trial_sweep", chain)
	for _, want := range []string{
		// The oldest file's claim as it was printed, the newer files' runs
		// chained onto it in PR order, and the oldest file's drift audit
		// since 39d9298 beside them.
		"  35   2f7169111b6d 2f7169111b6d   1.1128  10/10   better       1.1128  BENCH_pr35.json\n",
		churn35 + churn38 + churn39 + churn40 + churn45 + "  drift audit 39d92984aa61..2f7169111b6d   1.6399  10/10   better     in BENCH_pr35.json\n",
		trial35 + trial38 + trial39 + trial40 + trial45 + "  drift audit 39d92984aa61..2f7169111b6d   2.7349  10/10   better     in BENCH_pr35.json\n",
		// storm_node_crash has no audit.
		storm35 + storm38 + storm39 + storm40 + storm45 + "  drift audit: none\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trajectory lacks\n%s\ngot:\n%s", want, got)
		}
	}
}
