package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
