package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// trajectoryMetric is the metric the trajectory follows: every workload
// reports it, and every claim so far has been made on it.
const trajectoryMetric = "ops_per_s"

// benchFile is one BENCH_pr<N>.json: its PR number and its runs.
type benchFile struct {
	name string
	pr   int
	runs []report
}

var prNumber = regexp.MustCompile(`pr(\d+)`)

func readBenchFile(path string) (benchFile, error) {
	f := benchFile{name: filepath.Base(path)}
	m := prNumber.FindStringSubmatch(f.name)
	if m == nil {
		return f, fmt.Errorf("%s: no pr<N> in the file name", path)
	}
	f.pr, _ = strconv.Atoi(m[1])
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	var doc struct {
		Runs []report `json:"runs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	f.runs = doc.Runs
	return f, nil
}

// trajectoryRow is one run's line: which file and PR, the run's two
// commits, how many pairs it ran, and its summary of trajectoryMetric.
type trajectoryRow struct {
	file       string
	pr         int
	base, head string
	pairs      int
	m          summary
}

// trajectory prints, per workload, the chain of ratios each PR measured on
// it against its own base, their running product, and the latest direct
// drift audit beside them. A file's first run names the PR's base; a run
// against any other base is a drift audit (the tree measured directly
// against an older commit). Per file and workload the PR's ratio is its
// longest run against the PR's base, the later one on a tie: a claim's ten
// pairs outweigh a short recheck. A gap between the chain's product and a
// direct audit over the same span is per-PR loss the bounds cannot see.
func trajectory(w io.Writer, paths []string) error {
	var files []benchFile
	for _, p := range paths {
		f, err := readBenchFile(p)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].pr < files[j].pr })

	chain := map[string][]trajectoryRow{}
	audit := map[string]trajectoryRow{}
	var workloads []string
	for _, f := range files {
		if len(f.runs) == 0 {
			continue
		}
		own := f.runs[0].BaseCommit
		longest := map[string]trajectoryRow{}
		var order []string
		for _, r := range f.runs {
			row := trajectoryRow{file: f.name, pr: f.pr, base: r.BaseCommit, head: r.HeadCommit, pairs: len(r.Pairs)}
			found := false
			for _, m := range r.Metrics {
				if m.Name == trajectoryMetric {
					row.m, found = m, true
				}
			}
			if !found {
				return fmt.Errorf("%s: a %s run has no %s summary", f.name, r.Workload, trajectoryMetric)
			}
			if _, seen := chain[r.Workload]; !seen {
				chain[r.Workload] = nil
				workloads = append(workloads, r.Workload)
			}
			if r.BaseCommit != own {
				audit[r.Workload] = row
				continue
			}
			prev, seen := longest[r.Workload]
			if !seen {
				order = append(order, r.Workload)
			}
			if !seen || row.pairs >= prev.pairs {
				longest[r.Workload] = row
			}
		}
		for _, wl := range order {
			chain[wl] = append(chain[wl], longest[wl])
		}
	}

	for i, wl := range workloads {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s, %s, ratio = change median / base median\n", wl, trajectoryMetric)
		fmt.Fprintf(w, "  %-4s %-12s %-12s %8s %7s  %-10s %8s  %s\n", "PR", "base", "change", "ratio", "wins", "verdict", "chain", "file")
		product := 1.0
		for _, r := range chain[wl] {
			product *= r.m.Ratio
			fmt.Fprintf(w, "  %-4d %-12.12s %-12.12s %8.4f %3d/%-3d  %-10s %8.4f  %s\n",
				r.pr, r.base, r.head, r.m.Ratio, r.m.Wins, r.m.Decided, r.m.Verdict, product, r.file)
		}
		if a, ok := audit[wl]; ok {
			fmt.Fprintf(w, "  drift audit %.12s..%.12s %8.4f %3d/%-3d  %-10s in %s\n",
				a.base, a.head, a.m.Ratio, a.m.Wins, a.m.Decided, a.m.Verdict, a.file)
		} else {
			fmt.Fprintln(w, "  drift audit: none")
		}
	}
	return nil
}
