package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 1 {
		t.Fatal("empty ratio should be vacuous success")
	}
	r.Add(3, 4)
	r.Add(1, 4)
	if r.Value() != 0.5 {
		t.Fatalf("value = %g", r.Value())
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.Count() != 0 {
		t.Fatal("empty mean wrong")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 || m.Count() != 2 {
		t.Fatalf("mean = %g count = %d", m.Value(), m.Count())
	}
}

func TestSeriesAppend(t *testing.T) {
	s := Series{Name: "x"}
	s.Append(1, 2)
	s.Append(3, 4)
	if len(s.X) != 2 || s.Y[1] != 4 {
		t.Fatal("append broken")
	}
}

func TestFormatPercent(t *testing.T) {
	if got := FormatPercent(0.3025); got != "30.25%" {
		t.Fatalf("got %q", got)
	}
	if got := FormatPercent(math.NaN()); got != "N/A" {
		t.Fatalf("NaN rendered %q", got)
	}
	if got := FormatPercent(1); got != "100.00%" {
		t.Fatalf("got %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Demo", Columns: []string{"Metric", "a", "b"}}
	tb.AddPercentRow("coverage", 1, math.NaN())
	tb.AddRow("raw", "x", "y")
	out := tb.String()
	for _, want := range []string{"Demo", "Metric", "coverage", "100.00%", "N/A", "raw"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestRenderSeries(t *testing.T) {
	a := Series{Name: "s1", XLabel: "load"}
	a.Append(0.1, 0.2)
	a.Append(0.3, 0.4)
	b := Series{Name: "s2"}
	b.Append(0.1, 0.9)
	out := RenderSeries("title", a, b)
	for _, want := range []string{"title", "load", "s1", "s2", "0.2000", "0.9000", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if got := RenderSeries("empty"); !strings.Contains(got, "empty") {
		t.Fatal("empty render broken")
	}
}
