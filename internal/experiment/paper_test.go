package experiment

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/conformance"
)

// TestPaperAgreement checks the golden tables (held to Render() by
// TestGoldenTables) against the paper, running no sweep: every published
// cell in testdata/paper lies within tolerance or is listed with a reason,
// every listed cell is still out, and DESIGN.md §5's shape claims hold.
func TestPaperAgreement(t *testing.T) {
	tables, paper := readTestdata("tables"), readTestdata("paper")
	if len(paper) != 8 {
		t.Fatalf("%d paper files, want Tables 1(a)-3(b)", len(paper))
	}
	for _, p := range agreement(tables, paper) {
		t.Error(p)
	}
}

// TestPaperAgreementCatches holds the comparator to its job: each edit of
// the pinned text must produce a disagreement naming it.
func TestPaperAgreementCatches(t *testing.T) {
	for _, tc := range []struct{ name, dir, id, old, new, want string }{
		{"cell out of tolerance", "tables", "table1c", "97.64%", "91.64%", "1 link failure, mux=5: 91.64 vs paper 97.63"},
		{"unlisted exception", "paper", "table2a", "\n1 node failure  mux=5", "\n# ", "mux=5: 64.60 vs paper 69.92, out of ±5 points true, listed false"},
		{"stale exception", "tables", "table2a", "64.60%", "68.60%", "mux=5: 68.60 vs paper 69.92, out of ±5 points false, listed true"},
		{"broken shape claim", "tables", "table1a", "13.23%", "20.00%", "table1a Spare bandwidth: rises at mux=5"},
	} {
		files := map[string]map[string]string{"tables": readTestdata("tables"), "paper": readTestdata("paper")}
		text := files[tc.dir][tc.id]
		files[tc.dir][tc.id] = strings.Replace(text, tc.old, tc.new, 1)
		got := strings.Join(agreement(files["tables"], files["paper"]), "\n")
		if !strings.Contains(text, tc.old) || !strings.Contains(got, tc.want) {
			t.Errorf("%s: editing %q in %s/%s gave no %q among:\n%s", tc.name, tc.old, tc.dir, tc.id, tc.want, got)
		}
	}
}

// TestRenderPrintsViolations: the §5 and scheme tables end with one line per
// conformance violation, so a golden and TestPaperAgreement see them.
func TestRenderPrintsViolations(t *testing.T) {
	vs := []conformance.Violation{{Seq: 3, Rule: "gamma", Detail: "late"}}
	out := Section5Result{Rows: []Section5Row{{FailPos: 2, Backups: 1, Violations: vs}}}.Render() +
		SchemeComparisonResult{Rows: []SchemeRow{{Scheme: 1, FailPos: 4, Violations: vs}}}.Render()
	for _, want := range []string{"\nviolation: link 2, 1 backup(s): event 3 at 0s: gamma: late\n", "\nviolation: scheme 1, link 4: event 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("no %q in:\n%s", want, out)
		}
	}
}

// readTestdata maps testdata/<dir>/<id>.txt to its text; unreadable is missing.
func readTestdata(dir string) map[string]string {
	fsys := os.DirFS("testdata/" + dir)
	names, _ := fs.Glob(fsys, "*.txt")
	out := map[string]string{}
	for _, n := range names {
		b, _ := fs.ReadFile(fsys, n)
		out[strings.TrimSuffix(n, ".txt")] = string(b)
	}
	return out
}

var (
	cellSep    = regexp.MustCompile(` {2,}`)
	titleSpare = regexp.MustCompile(` \(spare bandwidth ([0-9.]+%)\)$`)
)

// cells is the one tokenizer for both trees: a rendered line's cells are
// separated by runs of two or more spaces.
func cells(line string) []string { return cellSep.Split(strings.TrimSpace(line), -1) }

// grid is a rendered text: its first title and header (header[i] names
// row[i]), then every other line as a row, so a second table's rows follow
// the first's. Table 2's title spare becomes a "Spare bandwidth" row.
type grid struct {
	title  string
	header []string
	rows   [][]string
}

// parseGrid skips blank lines, rules and '#' comments.
func parseGrid(text string) (g grid) {
	for _, l := range strings.Split(text, "\n") {
		switch {
		case l == "" || l[0] == '#' || l[0] == '-':
		case g.title == "":
			g.title = l
		case g.header == nil:
			g.header = cells(l)
			if m := titleSpare.FindStringSubmatch(g.title); m != nil {
				g.title = strings.TrimSuffix(g.title, m[0])
				g.rows = append(g.rows, cells("Spare bandwidth  "+strings.Repeat(m[1]+"  ", len(g.header)-1)))
			}
		default:
			g.rows = append(g.rows, cells(l))
		}
	}
	return g
}

// cell returns the first cell of g in row and column col.
func (g grid) cell(row, col string) (string, bool) {
	i := slices.Index(g.header, col)
	for _, r := range g.rows {
		if r[0] == row && i > 0 && i < len(r) {
			return r[i], true
		}
	}
	return "", false
}

// num reads a cell: a duration, or a number with an optional '%'; N/A,
// (≈) and anything else read as NaN, which every comparison skips.
func num(s string) float64 {
	if d, err := time.ParseDuration(s); err == nil {
		return float64(d)
	}
	if f, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64); err == nil {
		return f
	}
	return math.NaN()
}

// agreement lists, sorted, every disagreement between the golden tables
// and the paper files (both id → text).
func agreement(tables, paper map[string]string) []string {
	bad := shapeClaims(tables)
	for id, text := range paper {
		bad = append(bad, cellAgreement(id, tables[id], text)...)
	}
	sort.Strings(bad)
	return bad
}

// cellAgreement compares a paper file with its golden table. The file is
// the table, then "tolerance  <n> points", then under "out of tolerance"
// one "row  column  reason" line per cell excused from it.
func cellAgreement(id, golden, paper string) []string {
	head, trailer, _ := strings.Cut(paper, "\n\n")
	pub, got := parseGrid(head), parseGrid(golden)
	if pub.title != got.title || !slices.Equal(pub.header, got.header) {
		return []string{id + ": paper file and golden table differ in title or header"}
	}
	var bad []string
	tol, listed := math.NaN(), map[[2]string]string{}
	for _, l := range strings.Split(trailer, "\n") {
		if c := cells(l); c[0] == "tolerance" && len(c) == 2 {
			tol = num(strings.TrimSuffix(c[1], " points"))
		} else if len(c) == 3 && !strings.HasPrefix(l, "#") {
			listed[[2]string{c[0], c[1]}] = c[2]
		}
	}
	for _, r := range pub.rows {
		for i, col := range pub.header[1:] {
			g, _ := got.cell(r[0], col)
			want, v := num(r[i+1]), num(g)
			reason, isListed := listed[[2]string{r[0], col}]
			delete(listed, [2]string{r[0], col})
			if out := !(math.Abs(v-want) <= tol); !math.IsNaN(want) && out != isListed {
				bad = append(bad, fmt.Sprintf("%s %s, %s: %.2f vs paper %.2f, out of ±%g points %v, listed %v %s", id, r[0], col, v, want, tol, out, isListed, reason))
			}
		}
	}
	for k := range listed {
		bad = append(bad, fmt.Sprintf("%s %s, %s: listed, but the paper publishes no such cell", id, k[0], k[1]))
	}
	return bad
}

// shapeClaims checks, over the golden tables alone, every relationship the
// paper states that a rendered table can show (DESIGN.md §5).
func shapeClaims(tables map[string]string) []string {
	var bad []string
	claim := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	grids := map[string]grid{}
	for _, id := range IDs {
		claim(tables[id] != "", "%s: no golden table", id)
		grids[id] = parseGrid(tables[id])
	}
	// v reads a cell, of an "R_fast/survival" cell the R_fast.
	v := func(id, row, col string) float64 {
		c, ok := grids[id].cell(row, col)
		claim(ok, "%s: no cell %s, %s", id, row, col)
		return num(strings.Split(c, "/")[0])
	}
	// falls claims a row's cells never rise across cols (strict: always
	// fall); NaN (N/A) compares false and passes.
	falls := func(id, row string, strict bool, cols ...string) {
		for i := 1; i < len(cols); i++ {
			x, prev := v(id, row, cols[i]), v(id, row, cols[i-1])
			claim(!(x > prev || strict && x == prev), "%s %s: rises at %s", id, row, cols[i])
		}
	}
	mux := []string{"mux=1", "mux=3", "mux=5", "mux=6"}
	fails := []string{"1 link failure", "1 node failure", "2 node failures"}
	const spare = "Spare bandwidth"

	// Tables 1 and 2: the guarantees hold per class (mux=1 survives any
	// single failure, mux=3 any single link), a second failed node hurts
	// wherever one is not fully covered, and the cheapest class absorbs node
	// failures. In Table 1 spare falls and R_fast does not rise with the
	// degree, and falls from mux=5 to mux=6.
	for _, id := range []string{"table1a", "table1b", "table1c", "table2a", "table2b", "table2c"} {
		for _, c := range [][2]string{{fails[0], "mux=1"}, {fails[1], "mux=1"}, {fails[0], "mux=3"}} {
			claim(!(v(id, c[0], c[1]) < 100), "%s: %s at %s below the guaranteed 100%%", id, c[0], c[1])
		}
		claim(!(v(id, fails[1], "mux=6") >= v(id, fails[1], "mux=1")), "%s: mux=6 does not absorb node failures", id)
		for _, m := range mux {
			claim(!(v(id, fails[2], m) >= v(id, fails[1], m) && v(id, fails[1], m) < 100), "%s %s: two failed nodes no worse than one", id, m)
		}
		for _, r := range append([]string{spare}, fails...) {
			if id < "table2" {
				falls(id, r, r == spare, mux...)
				falls(id, r, true, "mux=5", "mux=6")
			}
		}
	}
	// Mesh spare above torus; brute force within 5 points of proposed on the
	// torus, below it on the mesh and by more than 5 points from mux=3; two
	// backups at mux=6 beat one at mux=5 for less spare.
	for i, m := range mux {
		claim(v("table1c", spare, m) > v("table1a", spare, m) && v("table2c", spare, m) > v("table2a", spare, m), "%s: mesh spare not above torus", m)
		for _, f := range fails {
			claim(math.Abs(v("table1a", f, m)-v("table3a", f, m)) <= 5, "torus %s %s: brute force over 5 points from proposed", f, m)
			gap := v("table1c", f, m) - v("table3b", f, m)
			claim(gap >= 0 && (i == 0 || gap > 5), "mesh %s %s: proposed leads brute force by %.2f points", f, m, gap)
		}
	}
	claim(v("table1b", spare, "mux=6") < v("table1a", spare, "mux=5"), "two backups at mux=6 cost more spare than one at mux=5")
	for _, f := range fails {
		claim(v("table1b", f, "mux=6") > v("table1a", f, "mux=5"), "%s: two backups at mux=6 not above one at mux=5", f)
	}
	// Hot spots: proposed beats brute force.
	for _, f := range fails[:2] {
		claim(v("hotspot", "proposed", f) > v("hotspot", "brute-force", f), "hotspot %s: brute force not beaten", f)
	}

	// §5: every row within its bound (the title's verdict), Γ not falling
	// with the failure's distance from the source for one backup (the first
	// row of each position). Figure 5: scheme 1 is never faster than scheme
	// 3, and its lead shrinks toward the destination. Neither table is
	// followed by a conformance violation.
	claim(strings.HasSuffix(grids["sec5"].title, "all within bound: true)"), "sec5: %s", grids["sec5"].title)
	for i := 1; i < 8; i++ {
		claim(v("sec5", fmt.Sprintf("link %d", i), "gamma") >= v("sec5", fmt.Sprintf("link %d", i-1), "gamma"), "sec5: gamma falls at link %d", i)
	}
	lead := map[string]float64{}
	for _, r := range grids["schemes"].rows {
		g := num(r[slices.Index(grids["schemes"].header, "gamma")])
		lead[r[slices.Index(grids["schemes"].header, "fail-pos")]] += map[string]float64{"scheme 1": g, "scheme 3": -g}[r[0]]
	}
	claim(lead["link 0"] > lead["link 4"] && lead["link 4"] > lead["link 7"] && lead["link 7"] >= 0, "schemes: scheme 1's lead over scheme 3 %v", lead)
	for _, id := range []string{"sec5", "schemes"} {
		claim(!strings.Contains(tables[id], "\nviolation:"), "%s: conformance violations", id)
	}

	// Severity: R_fast does not rise with k and stays at or below backup
	// survival; two backups dominate one. Figure 9: unmultiplexed backups
	// cost more than the primary load, and spare falls with the degree and
	// grows with load.
	sev := grids["severity"]
	for _, r := range sev.rows {
		falls("severity", r[0], false, sev.header[1:]...)
		for _, c := range r[1:] {
			rs := strings.Split(c, "/")
			claim(num(rs[0]) <= num(rs[1]), "severity %s: R_fast above survival in %s", r[0], c)
		}
	}
	for _, k := range sev.header[1:] {
		claim(v("severity", "2 backups mux=3", k) >= v("severity", "1 backup mux=3", k), "severity %s: two backups below one", k)
	}
	for _, id := range []string{"fig9a", "fig9b", "fig9c"} {
		rows := grids[id].rows
		for i, r := range rows {
			falls(id, r[0], true, grids[id].header[1:]...)
			claim(num(r[1]) > num(r[0]), "%s load %s: mux=0 spare below the load", id, r[0])
			for j := 1; i > 0 && j < len(r); j++ {
				claim(num(r[j]) > num(rows[i-1][j]), "%s load %s: column %d does not grow with load", id, r[0], j)
			}
		}
	}
	return bad
}
