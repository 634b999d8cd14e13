// Command benchpair runs the repository benchmark as alternating pairs of a
// base revision and the working tree, the protocol a performance claim in
// this repository is held to: the same driver command on both sides, the
// side that goes first alternating pair by pair, one fresh seed per pair.
//
//	benchpair -base HEAD~1 -workload establish_churn -pairs 10
//
// The base revision's committed files are exported with `git archive` into
// .bench_build/pair/<commit>/ (gitignored) and each side is built and run by
// its own bench/run.sh, so nothing outside the checkout is written. Output is
// every run's value, then per end-to-end metric of BENCHMARK.json each side's
// median [q1,q3], the ratio of medians, the pairs the change won, and the
// verdict: "better" needs wins in at least nine tenths of the pairs and a
// median difference above the base's interquartile distance; "worse" is a
// median beyond the metric's bound on the wrong side.
//
// With -json FILE the same report, every run included, is appended to the
// "runs" list of the JSON object in FILE (created if missing; other keys are
// kept), so a performance claim's evidence is data:
//
//	benchpair -base HEAD~1 -workload establish_churn -json BENCH_x.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// report is one benchpair invocation: what it prints, and what -json writes.
type report struct {
	Base       string `json:"base"`        // the revision as given
	BaseCommit string `json:"base_commit"` // what it resolved to
	HeadCommit string `json:"head_commit"` // the working tree's HEAD
	Dirty      bool   `json:"dirty"`       // the working tree differs from HEAD
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Pairs      []pair `json:"pairs"`
	// Metrics is one summary per end-to-end metric of BENCHMARK.json, in its
	// order.
	Metrics []summary `json:"metrics"`
}

// pair is one base/change pair: seed = pair number, first side alternating.
type pair struct {
	Seed   int     `json:"seed"`
	First  string  `json:"first"` // "base" or "change"
	Base   sideRun `json:"base"`
	Change sideRun `json:"change"`
}

type sideRun struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"` // by metric name
}

// summary is one metric's row of the verdict table. Quartiles are q1,
// median, q3; Ratio is change median over base median (0 when the base
// median is 0, which JSON could not carry as a ratio); Wins counts the pairs
// the change won out of Decided, the pairs that did not tie.
type summary struct {
	metricSpec
	BaseQ   [3]float64 `json:"base_quartiles"`
	ChangeQ [3]float64 `json:"change_quartiles"`
	Ratio   float64    `json:"ratio"`
	Wins    int        `json:"wins"`
	Decided int        `json:"decided"`
	Verdict string     `json:"verdict"`
}

func main() {
	base := flag.String("base", "HEAD", "revision to compare the working tree against")
	workload := flag.String("workload", "establish_churn", "benchmark workload")
	pairs := flag.Int("pairs", 10, "number of base/change pairs")
	seconds := flag.Int("seconds", 0, "measurement window per run (default: BENCHMARK.json run_seconds)")
	jsonFile := flag.String("json", "", "append the report to the \"runs\" list of the JSON object in this file")
	flag.Parse()
	if err := run(*base, *workload, *pairs, *seconds, *jsonFile); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs, seconds int, jsonFile string) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	var bm struct {
		RunSeconds int          `json:"run_seconds"`
		EndToEnd   []metricSpec `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds == 0 {
		seconds = bm.RunSeconds
	}
	r := report{Base: base, Workload: workload, Seconds: seconds}
	if r.BaseCommit, err = git(root, "rev-parse", "--verify", base+"^{commit}"); err != nil {
		return err
	}
	if r.HeadCommit, err = git(root, "rev-parse", "HEAD"); err != nil {
		return err
	}
	status, err := git(root, "status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return err
	}
	r.Dirty = status != ""
	for _, m := range bm.EndToEnd {
		r.Metrics = append(r.Metrics, summary{metricSpec: m})
	}
	baseDir := filepath.Join(root, ".bench_build", "pair", r.BaseCommit)
	if _, err := os.Stat(filepath.Join(baseDir, "bench", "run.sh")); err != nil {
		if err := os.MkdirAll(baseDir, 0o755); err != nil {
			return err
		}
		export := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", r.BaseCommit, baseDir)
		export.Dir, export.Stderr = root, os.Stderr
		if err := export.Run(); err != nil {
			return fmt.Errorf("exporting %s: %w", r.BaseCommit, err)
		}
	}

	dirs := [2]string{baseDir, root}
	writeHeader(os.Stdout, &r)
	for i := 1; i <= pairs; i++ {
		p := pair{Seed: i, First: "base"}
		order := []int{0, 1}
		if i%2 == 0 {
			p.First, order = "change", []int{1, 0}
		}
		r.Pairs = append(r.Pairs, p)
		for _, s := range order {
			res, err := runOnce(dirs[s], workload, i, seconds)
			if err != nil {
				return fmt.Errorf("pair %d %s: %w", i, sideNames[s], err)
			}
			sr := sideRun{Attempted: res.Attempted, Failed: res.Failed, Values: map[string]float64{}}
			for _, m := range bm.EndToEnd {
				sr.Values[m.Name] = res.Metrics[m.Name].Value
			}
			*r.Pairs[i-1].side(s) = sr
			writeRun(os.Stdout, &r, i-1, s)
		}
	}
	r.summarize()
	writeSummary(os.Stdout, &r)
	if jsonFile != "" {
		return appendReport(jsonFile, &r)
	}
	return nil
}

var sideNames = [2]string{"base", "change"}

func (p *pair) side(s int) *sideRun {
	if s == 0 {
		return &p.Base
	}
	return &p.Change
}

// summarize fills every metric's quartiles, ratio, wins and verdict from the
// runs: "better" needs wins in at least nine tenths of the pairs and a median
// gain above the base's interquartile distance; "worse" is a median loss
// beyond the metric's bound; "unresolved" is a base spread wider than the
// bound.
func (r *report) summarize() {
	for k := range r.Metrics {
		m := &r.Metrics[k]
		var b, c []float64
		for _, p := range r.Pairs {
			b, c = append(b, p.Base.Values[m.Name]), append(c, p.Change.Values[m.Name])
		}
		m.Wins, m.Decided = 0, 0
		for i := range b {
			if c[i] == b[i] {
				continue
			}
			m.Decided++
			if (c[i] > b[i]) == (m.Better == "higher") {
				m.Wins++
			}
		}
		bq, cq := quartiles(b), quartiles(c)
		m.BaseQ, m.ChangeQ, m.Ratio = bq, cq, 0
		if bq[1] != 0 {
			m.Ratio = cq[1] / bq[1]
		}
		gain := cq[1] - bq[1]
		if m.Better == "lower" {
			gain = -gain
		}
		m.Verdict = "same"
		switch {
		case gain < -m.Bound*math.Abs(bq[1]):
			m.Verdict = "worse"
		case 10*m.Wins >= 9*len(b) && gain > bq[2]-bq[0]:
			m.Verdict = "better"
		case bq[2]-bq[0] > m.Bound*math.Abs(bq[1]):
			m.Verdict = "unresolved"
		}
	}
}

// render prints the whole report as run prints it piece by piece.
func render(w io.Writer, r *report) {
	writeHeader(w, r)
	for i, p := range r.Pairs {
		order := []int{0, 1}
		if p.First == "change" {
			order = []int{1, 0}
		}
		for _, s := range order {
			writeRun(w, r, i, s)
		}
	}
	writeSummary(w, r)
}

func writeHeader(w io.Writer, r *report) {
	dirty := ""
	if r.Dirty {
		dirty = " with local changes"
	}
	fmt.Fprintf(w, "base %s (%.12s), change: working tree at %.12s%s; workload %s, %d s per run\n",
		r.Base, r.BaseCommit, r.HeadCommit, dirty, r.Workload, r.Seconds)
}

func writeRun(w io.Writer, r *report, i, s int) {
	p := &r.Pairs[i]
	sr := p.side(s)
	fmt.Fprintf(w, "pair %2d %-6s attempted=%d failed=%d", p.Seed, sideNames[s], sr.Attempted, sr.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, " %s=%.6g", m.Name, sr.Values[m.Name])
	}
	fmt.Fprintln(w)
}

func writeSummary(w io.Writer, r *report) {
	fmt.Fprintf(w, "\n%-14s %-5s %34s %34s %8s %6s  %s\n", "metric", "unit", "base median [q1,q3]", "change median [q1,q3]", "ratio", "wins", "verdict")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-14s %-5s %34s %34s %8.4f %3d/%-2d  %s\n", m.Name, m.Unit,
			fmt.Sprintf("%.6g [%.6g,%.6g]", m.BaseQ[1], m.BaseQ[0], m.BaseQ[2]),
			fmt.Sprintf("%.6g [%.6g,%.6g]", m.ChangeQ[1], m.ChangeQ[0], m.ChangeQ[2]),
			m.Ratio, m.Wins, m.Decided, m.Verdict)
	}
}

// appendReport appends r to the "runs" list of the JSON object in file,
// keeping the object's other keys.
func appendReport(file string, r *report) error {
	doc := map[string]json.RawMessage{}
	raw, err := os.ReadFile(file)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
	}
	var runs []json.RawMessage
	if doc["runs"] != nil {
		if err := json.Unmarshal(doc["runs"], &runs); err != nil {
			return fmt.Errorf("%s: runs: %w", file, err)
		}
	}
	one, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if doc["runs"], err = json.Marshal(append(runs, one)); err != nil {
		return err
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, out, "", "  "); err != nil {
		return err
	}
	indented.WriteByte('\n')
	return os.WriteFile(file, indented.Bytes(), 0o644)
}

// runOnce runs one side's own driver command and parses the result object it
// prints last.
func runOnce(dir, workload string, seed, seconds int) (result, error) {
	var r result
	cmd := exec.Command("bash", filepath.Join(dir, "bench", "run.sh"),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stderr bytes.Buffer // the build log and the benchmark's own table
	cmd.Dir, cmd.Stderr = dir, &stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("%w\n%s", err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct {
		return r, fmt.Errorf("benchmark reported incorrect output")
	}
	return r, nil
}

// quartiles returns q1, median and q3 by linear interpolation.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
