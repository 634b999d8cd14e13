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
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
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

func main() {
	base := flag.String("base", "HEAD", "revision to compare the working tree against")
	workload := flag.String("workload", "establish_churn", "benchmark workload")
	pairs := flag.Int("pairs", 10, "number of base/change pairs")
	seconds := flag.Int("seconds", 0, "measurement window per run (default: BENCHMARK.json run_seconds)")
	flag.Parse()
	if err := run(*base, *workload, *pairs, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs, seconds int) error {
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
	commit, err := git(root, "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	baseDir := filepath.Join(root, ".bench_build", "pair", commit)
	if _, err := os.Stat(filepath.Join(baseDir, "bench", "run.sh")); err != nil {
		if err := os.MkdirAll(baseDir, 0o755); err != nil {
			return err
		}
		export := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", commit, baseDir)
		export.Dir, export.Stderr = root, os.Stderr
		if err := export.Run(); err != nil {
			return fmt.Errorf("exporting %s: %w", commit, err)
		}
	}

	sides := []struct{ name, dir string }{{"base", baseDir}, {"change", root}}
	values := map[string][2][]float64{} // metric -> side -> one value per pair
	fmt.Printf("base %s (%.12s), change: working tree; workload %s, %d pairs, %d s per run\n",
		base, commit, workload, pairs, seconds)
	for i := 1; i <= pairs; i++ {
		order := []int{0, 1}
		if i%2 == 0 {
			order = []int{1, 0}
		}
		for _, s := range order {
			r, err := runOnce(sides[s].dir, workload, i, seconds)
			if err != nil {
				return fmt.Errorf("pair %d %s: %w", i, sides[s].name, err)
			}
			fmt.Printf("pair %2d %-6s attempted=%d failed=%d", i, sides[s].name, r.Attempted, r.Failed)
			for _, m := range bm.EndToEnd {
				v := r.Metrics[m.Name].Value
				pair := values[m.Name]
				pair[s] = append(pair[s], v)
				values[m.Name] = pair
				fmt.Printf(" %s=%.6g", m.Name, v)
			}
			fmt.Println()
		}
	}

	fmt.Printf("\n%-14s %-5s %34s %34s %8s %6s  %s\n", "metric", "unit", "base median [q1,q3]", "change median [q1,q3]", "ratio", "wins", "verdict")
	for _, m := range bm.EndToEnd {
		b, c := values[m.Name][0], values[m.Name][1]
		wins, ties := 0, 0
		for i := range b {
			switch {
			case c[i] == b[i]:
				ties++
			case (c[i] > b[i]) == (m.Better == "higher"):
				wins++
			}
		}
		bq, cq := quartiles(b), quartiles(c)
		gain := cq[1] - bq[1]
		if m.Better == "lower" {
			gain = -gain
		}
		verdict := "same"
		switch {
		case gain < -m.Bound*math.Abs(bq[1]):
			verdict = "worse"
		case 10*wins >= 9*len(b) && gain > bq[2]-bq[0]:
			verdict = "better"
		case bq[2]-bq[0] > m.Bound*math.Abs(bq[1]):
			verdict = "unresolved"
		}
		fmt.Printf("%-14s %-5s %34s %34s %8.4f %3d/%-2d  %s\n", m.Name, m.Unit,
			fmt.Sprintf("%.6g [%.6g,%.6g]", bq[1], bq[0], bq[2]),
			fmt.Sprintf("%.6g [%.6g,%.6g]", cq[1], cq[0], cq[2]),
			cq[1]/bq[1], wins, len(b)-ties, verdict)
	}
	return nil
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
