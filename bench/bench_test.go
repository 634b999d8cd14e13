package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample percentile = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty percentile is not NaN")
	}
}

// TestQuietEstimator builds eleven one-second segments whose medians are
// known: one quiet one at 90 and ten disturbed ones from 100 to 400. The
// estimator must read the quiet segment whatever the disturbed ones do, and a
// sample past the window, however short, must not form a segment.
func TestQuietEstimator(t *testing.T) {
	medians := []int64{300, 400, 100, 150, 90, 200, 110, 250, 350, 160, 170}
	const seg = int64(time.Second)
	window := time.Duration(len(medians)) * time.Second
	var s []sample
	for i, m := range medians {
		for k := int64(-15); k <= 15; k++ {
			s = append(s, sample{at: int64(i)*seg + (k+16)*1000, dur: m + k})
		}
	}
	s = append(s, sample{at: int64(window) + 1, dur: 1}) // overran the deadline
	got, n := quiet(s, window, time.Second, 0.5)
	if n != len(medians) || got != 90 {
		t.Fatalf("quiet = %v over %d segments, want 90 over %d", got, n, len(medians))
	}
	per := segmentStats(s, seg, len(medians), 0.5, 20)
	for i, m := range medians {
		if per[i] != float64(m) {
			t.Errorf("segment %d median = %v, want %d", i, per[i], m)
		}
	}
	// Too few samples for any segment: the pooled statistic is the fallback.
	if got, n := quiet(s[:3], window, time.Second, 0.5); n != 0 || got != float64(s[1].dur) {
		t.Errorf("fallback = %v over %d segments", got, n)
	}
}

// TestQuietTailNeedsSamples feeds the estimator what a 20 s window of 18 ms
// cycles looks like: 1100 operations of which one in ten is slow. Each
// half-second segment holds 27 of them, enough for a median and far too few
// for a p95: the smallest of forty such p95s would be an ordinary operation.
// The estimator must refuse the thin segments and report the pooled tail.
func TestQuietTailNeedsSamples(t *testing.T) {
	const window = 20 * time.Second
	var s []sample
	for i := 0; i < 1100; i++ {
		dur := int64(4500 + i%7)
		if i%20 < 2 {
			dur = 6500
		}
		s = append(s, sample{at: int64(i) * int64(window) / 1100, dur: dur})
	}
	if got, n := quiet(s, window, 500*time.Millisecond, 0.95); n != 0 || got != 6500 {
		t.Errorf("p95 = %v over %d segments, want the pooled 6500 over 0", got, n)
	}
	if got, n := quiet(s, window, 500*time.Millisecond, 0.5); n != 40 || got > 4510 {
		t.Errorf("median = %v over %d segments, want an ordinary operation over 40", got, n)
	}
	// Ten times the operations: every segment holds 275 and the p95 is a
	// quiet-segment value again.
	var dense []sample
	for i := 0; i < 11000; i++ {
		dense = append(dense, sample{at: int64(i) * int64(window) / 11000, dur: s[i%1100].dur})
	}
	if got, n := quiet(dense, window, 500*time.Millisecond, 0.95); n != 40 || got != 6500 {
		t.Errorf("dense p95 = %v over %d segments, want 6500 over 40", got, n)
	}
}

// TestCalibratedEstimator builds eight one-second segments in which both the
// operations and the reference ran slower by a known factor. Every segment
// must calibrate back to the operation's undisturbed 1000 whatever its
// slowdown; a segment without a reading must not
// count; and a series too thin for any segment falls back to the pooled
// statistic over the pooled slowdown.
func TestCalibratedEstimator(t *testing.T) {
	factors := []float64{1, 1.5, 2, 1.2, 1, 3, 1.1, 1.8}
	const seg = int64(time.Second)
	window := time.Duration(len(factors)) * time.Second
	var ops, ref []sample
	for i, f := range factors {
		for k := int64(-15); k <= 15; k++ {
			dur := 1000*f + float64(k)
			ops = append(ops, sample{at: int64(i)*seg + (k+16)*1000, dur: int64(math.Round(dur))})
		}
		if i == 5 {
			continue // no reading in the slowest segment
		}
		for k := int64(0); k < 3; k++ {
			ref = append(ref, sample{at: int64(i)*seg + k, dur: int64(refNominal * f)})
		}
	}
	got, n := calibrated(ops, ref, window, time.Second, 0.5)
	if n != len(factors)-1 || math.Abs(got-1000) > 15 {
		t.Fatalf("calibrated = %v over %d segments, want 1000 over %d", got, n, len(factors)-1)
	}
	// Three operations of the second segment: the pooled median over the
	// pooled slowdown (the median reading is 1.2 x nominal).
	thin := ops[31:34]
	want := float64(thin[1].dur) / 1.2
	if got, n := calibrated(thin, ref, window, time.Second, 0.5); n != 0 || !near(got, want) {
		t.Errorf("fallback = %v over %d segments, want %v over 0", got, n, want)
	}
	if got, n := calibrated(thin, nil, window, time.Second, 0.5); n != 0 || got != float64(thin[1].dur) {
		t.Errorf("fallback without readings = %v over %d segments", got, n)
	}
}

// TestReferenceReadsTheSameProgram checks two references are the same graph
// and that a reading reaches every node: a search that stopped early would
// be a shorter program on some sources than on others.
func TestReferenceReadsTheSameProgram(t *testing.T) {
	a, b := newReference(), newReference()
	if !reflect.DeepEqual(a.adj, b.adj) {
		t.Fatal("two references differ")
	}
	if ns := a.read(); ns <= 0 {
		t.Errorf("reading = %v ns", ns)
	}
	for v, d := range a.dist {
		if d == math.MaxInt64 {
			t.Fatalf("node %d not reached from source %d", v, a.src)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Parent: -1, Start: 0, End: 100},
		{Name: "core.a", Parent: 0, Start: 10, End: 40},
		{Name: "core.b", Parent: 0, Start: 30, End: 60},  // overlaps a: union is 10..60
		{Name: "core.c", Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped to 90..100
		{Name: "routing.x", Parent: 1, Start: 15, End: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	rows := layerTable(spans)
	if len(rows) != 3 || rows[1].layer != "core" || rows[1].count != 3 || rows[1].selfNs != 85 {
		t.Errorf("layer table = %+v", rows)
	}
}

// TestStageSpansFromRecordedRecovery records a real single-link recovery on
// the simulator (one 8-hop connection on the torus under 500 msg/s, the
// middle primary link crashed at 50 ms) and derives its stage spans.
func TestStageSpansFromRecordedRecovery(t *testing.T) {
	g := topology.NewTorus(8, 8, 200)
	mgr := core.NewManager(g, core.DefaultConfig())
	paths := routing.NewRouter(g).SequentialDisjointPaths(0, 36, 2, routing.Constraint{})
	if len(paths) < 2 {
		t.Fatal("no disjoint paths")
	}
	conn, err := mgr.EstablishOnPaths(rtchan.DefaultSpec(), paths[0], paths[1:2], []int{1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	eng := sim.New(1)
	cfg := bcpd.DefaultConfig()
	cfg.Sink = rec
	net := bcpd.New(eng, mgr, cfg)
	if err := net.StartTraffic(conn.ID, 500); err != nil {
		t.Fatal(err)
	}
	crashAt := sim.Time(50 * time.Millisecond)
	fail := conn.Primary.Path.Links()[2]
	eng.At(crashAt, func() { net.FailLink(fail) })
	eng.RunFor(time.Second)

	sw := net.SourceSwitches(conn.ID)
	if len(sw) != 1 {
		t.Fatalf("%d source switches, want 1", len(sw))
	}
	arrive, ok := firstArrivalAfter(net.SinkArrivals(conn.ID), sw[0])
	if !ok {
		t.Fatal("data never resumed")
	}
	rs, incomplete := deriveRecoveries(rec.Events, crashAt, map[rtchan.ConnID]sim.Time{conn.ID: arrive})
	if incomplete != 0 || len(rs) != 1 {
		t.Fatalf("derived %d recoveries, %d incomplete", len(rs), incomplete)
	}
	r := rs[0]
	if r.stage(stageDetect) != cfg.DetectionLatency {
		t.Errorf("detect stage = %v, want the detection latency %v", r.stage(stageDetect), cfg.DetectionLatency)
	}
	var sum sim.Duration
	for k := 0; k < numStages; k++ {
		if r.stage(k) < 0 {
			t.Errorf("stage %s is negative: %v", stageNames[k], r.stage(k))
		}
		sum += r.stage(k)
	}
	if want := arrive.Sub(crashAt); sum != want || r.disruption() != want {
		t.Errorf("stages sum to %v, disruption %v, want %v", sum, r.disruption(), want)
	}
	if r.stage(stageReport) == 0 {
		t.Error("the report must take time to reach an end node")
	}
	// Γ ends inside the chain: the switch is never before the first
	// activation start nor after the arrival.
	if sw[0] > arrive || sw[0] < r.bound[stageReport+1] {
		t.Errorf("source switch %v outside [activation start %v, arrival %v]", sw[0], r.bound[stageReport+1], arrive)
	}
	// A connection with no events in the stream is reported, not invented.
	if rs, inc := deriveRecoveries(rec.Events, crashAt, map[rtchan.ConnID]sim.Time{conn.ID + 99: arrive}); len(rs) != 0 || inc != 1 {
		t.Errorf("unknown connection: %d recoveries, %d incomplete", len(rs), inc)
	}
	stages, n := medianRecoveryStages(rs)
	if n != 1 || !near(stages[stageDetect], float64(cfg.DetectionLatency)) {
		t.Errorf("median recovery stages = %v over %d", stages, n)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the metric and
// workload lists compiled into the command.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, file []benchmarkMetric, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(prog))
		}
		for i, m := range file {
			d := prog[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: file %+v, program %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s metric %s: bound mismatch", kind, m.Name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

// TestSmokeAllWorkloads runs the whole suite on 200 ms windows and asserts
// that every metric BENCHMARK.json names is printed exactly once per workload
// and pass, that every check passes, and that the last line is the summary.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-seconds", "0.2", "-seed", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	seen := make(map[string]int)
	for _, l := range lines[:len(lines)-1] {
		var m line
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		if m.Unit == "" {
			t.Errorf("line %q carries no unit", l)
		}
		seen[m.Workload+"/"+m.Pass+"/"+m.Metric]++
	}
	for _, w := range f.Workloads {
		for _, m := range f.EndToEnd {
			if c := seen[w.Name+"/untraced/"+m.Name]; c != 1 {
				t.Errorf("%s: end-to-end metric %s printed %d times", w.Name, m.Name, c)
			}
		}
		for _, m := range f.PerLayer {
			if c := seen[w.Name+"/traced/"+m.Name]; c != 1 {
				t.Errorf("%s: per-layer metric %s printed %d times", w.Name, m.Name, c)
			}
		}
		for _, m := range specific[w.Name] {
			if c := seen[w.Name+"/untraced/"+m.name]; c != 1 {
				t.Errorf("%s: workload-specific metric %s printed %d times", w.Name, m.name, c)
			}
		}
	}
	want := len(f.Workloads) * (len(f.EndToEnd) + len(f.PerLayer))
	for _, m := range specific {
		want += len(m)
	}
	if len(seen) != want {
		t.Errorf("%d distinct metric lines, want %d", len(seen), want)
	}
	var summary struct {
		Correct bool    `json:"correct"`
		Claim   *string `json:"claim"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil || !summary.Correct || summary.Claim != nil {
		t.Errorf("summary line %q: %v", lines[len(lines)-1], err)
	}
	for _, want := range []string{"nproc=", "GOMAXPROCS=", "go1.", "seed=3", "window=200ms", "D^RCC_max", "data send period"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("human output lacks %q", want)
		}
	}
}

// TestDriverContract runs one workload the way the driver does and checks
// the shape of the last line for both passes.
func TestDriverContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "trial_sweep", "--seed", "5", "--seconds", "0.2", "--trace", traced}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", traced, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 {
			t.Errorf("trace %s: last line has keys %v", traced, res)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced == "1" {
			want = perLayer
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 || len(r.Metrics) != len(want) {
			t.Errorf("trace %s: result %+v", traced, r)
		}
		for _, d := range want {
			if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or unit %q != %q", traced, d.name, m.Unit, d.unit)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit code %d, stdout %q", code, stdout.String())
	}
}

// TestStormExactPerSeed runs the storm twice on one seed. How many cycles fit
// the window differs between the two runs; everything observed on the
// simulated clock must not.
func TestStormExactPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	const window = 100 * time.Millisecond
	var runs [2]stormRun
	for i := range runs {
		rig, err := newStormRig(7, false)
		if err != nil {
			t.Fatal(err)
		}
		// The second run is held past its window, as a slower host would be.
		runs[i] = rig.run(window*time.Duration(1+i), nil, nil)
	}
	a, b := runs[0], runs[1]
	if a.n != stormExactCycles(window) || len(a.gamma) == 0 {
		t.Fatalf("first run observed %d cycles and %d switches", a.n, len(a.gamma))
	}
	if a.cycles == b.cycles {
		t.Logf("both runs completed %d cycles; the comparison is weaker than intended", a.cycles)
	}
	if !reflect.DeepEqual(a.crashObs, b.crashObs) || a.simEvents != b.simEvents || a.simPending != b.simPending {
		t.Errorf("simulated-clock observations differ between two runs of one seed:\n%+v\n%+v", a.crashObs, b.crashObs)
	}
}
