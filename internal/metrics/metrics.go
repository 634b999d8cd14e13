// Package metrics provides the aggregation and presentation helpers used by
// the experiment harness: averaged recovery statistics across failure
// sweeps, series for figure regeneration, and paper-style table rendering.
package metrics

import (
	"fmt"
	"strings"
)

// Ratio accumulates a numerator/denominator pair across trials.
type Ratio struct {
	Num, Den float64
}

// Add accumulates one observation.
func (r *Ratio) Add(num, den float64) {
	r.Num += num
	r.Den += den
}

// Value returns num/den (1 when the denominator is zero, matching the
// convention that R_fast over zero failed channels is a vacuous success).
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return 1
	}
	return r.Num / r.Den
}

// Mean accumulates a running mean.
type Mean struct {
	sum   float64
	count int
}

// Add accumulates one observation.
func (m *Mean) Add(v float64) {
	m.sum += v
	m.count++
}

// Value returns the mean (0 for no observations).
func (m Mean) Value() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Count returns the number of observations.
func (m Mean) Count() int { return m.count }

// Series is a set of (x, y) points for figure regeneration.
type Series struct {
	Name   string
	X, Y   []float64
	XLabel string
	YLabel string
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders rows and columns the way the paper's tables print:
// a header row, then one row per metric.
type Table struct {
	Title   string
	Columns []string
	rows    []tableRow
}

type tableRow struct {
	label string
	cells []string
}

// AddRow appends a row of pre-formatted cells.
func (t *Table) AddRow(label string, cells ...string) {
	t.rows = append(t.rows, tableRow{label: label, cells: cells})
}

// AddPercentRow formats each value as a percentage with two decimals,
// printing "N/A" for NaN (the paper's marker for infeasible configurations).
func (t *Table) AddPercentRow(label string, values ...float64) {
	cells := make([]string, len(values))
	for i, v := range values {
		cells[i] = FormatPercent(v)
	}
	t.AddRow(label, cells...)
}

// FormatPercent renders a fraction as the paper prints percentages.
func FormatPercent(v float64) string {
	if v != v { // NaN
		return "N/A"
	}
	return fmt.Sprintf("%.2f%%", v*100)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Columns)+1)
	for _, r := range t.rows {
		if len(r.label) > widths[0] {
			widths[0] = len(r.label)
		}
		for i, c := range r.cells {
			if i+1 < len(widths) && len(c) > widths[i+1] {
				widths[i+1] = len(c)
			}
		}
	}
	for i, c := range t.Columns {
		if i == 0 {
			if len(c) > widths[0] {
				widths[0] = len(c)
			}
			continue
		}
		if i < len(widths) && len(c) > widths[i] {
			widths[i] = len(c)
		}
	}
	writeCells := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	if len(t.Columns) > 0 {
		writeCells(t.Columns)
		var rule []string
		for i, w := range widths {
			if i >= len(t.Columns) {
				break
			}
			if w < len(t.Columns[i]) {
				w = len(t.Columns[i])
			}
			rule = append(rule, strings.Repeat("-", w))
		}
		writeCells(rule)
	}
	for _, r := range t.rows {
		writeCells(append([]string{r.label}, r.cells...))
	}
	return b.String()
}

// RenderSeries prints one or more series as aligned columns sharing the X
// axis of the first series (points are matched by index).
func RenderSeries(title string, series ...Series) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	if len(series) == 0 {
		return b.String()
	}
	xl := series[0].XLabel
	if xl == "" {
		xl = "x"
	}
	fmt.Fprintf(&b, "%-12s", xl)
	for _, s := range series {
		fmt.Fprintf(&b, "  %-12s", s.Name)
	}
	b.WriteByte('\n')
	n := len(series[0].X)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-12.4f", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "  %-12.4f", s.Y[i])
			} else {
				fmt.Fprintf(&b, "  %-12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
