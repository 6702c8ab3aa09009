package eval

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesString(t *testing.T) {
	s := Series{
		Label:  "good tuples",
		XLabel: "% docs",
		Points: []Point{{X: 10, Est: 5, Act: 4}, {X: 20, Est: 8, Act: 0}},
	}
	out := s.String()
	if !strings.Contains(out, "good tuples") || !strings.Contains(out, "estimated") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
	if !strings.Contains(out, "1.25") {
		t.Errorf("ratio missing:\n%s", out)
	}
	// Zero actual renders a dash, not a division.
	if !strings.Contains(out, "-") {
		t.Errorf("zero-actual ratio should render as '-':\n%s", out)
	}
}

func TestSeriesDefaultXLabel(t *testing.T) {
	s := Series{Label: "x-less", Points: []Point{{X: 1, Est: 1, Act: 1}}}
	if !strings.Contains(s.String(), "x") {
		t.Error("default x label missing")
	}
}

func TestMeanAbsRelErr(t *testing.T) {
	s := Series{Points: []Point{
		{Est: 110, Act: 100}, // 0.1
		{Est: 80, Act: 100},  // 0.2
		{Est: 5, Act: 0},     // skipped
	}}
	got := s.MeanAbsRelErr()
	if math.Abs(got-0.15) > 1e-12 {
		t.Errorf("mean rel err %v, want 0.15", got)
	}
}

func TestMeanAbsRelErrAllZeroActuals(t *testing.T) {
	s := Series{Points: []Point{{Est: 5, Act: 0}}}
	if !math.IsNaN(s.MeanAbsRelErr()) {
		t.Error("expected NaN for no valid points")
	}
}

func TestFigureString(t *testing.T) {
	f := Figure{
		ID:    "Figure 9",
		Title: "accuracy",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Est: 2, Act: 2}}},
			{Label: "b", Points: []Point{{X: 1, Est: 3, Act: 4}}},
		},
	}
	out := f.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "accuracy") {
		t.Errorf("figure header missing:\n%s", out)
	}
	if strings.Count(out, "estimated") != 2 {
		t.Errorf("expected both series rendered:\n%s", out)
	}
}

func TestTableAlignment(t *testing.T) {
	tab := Table{
		Title:  "T",
		Header: []string{"col", "longer-header"},
		Rows: [][]string{
			{"a-very-long-cell", "b"},
			{"c", "d"},
		},
	}
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	// The second column must start at the same offset in header and rows.
	headerIdx := strings.Index(lines[1], "longer-header")
	rowIdx := strings.Index(lines[3], "b")
	if headerIdx != rowIdx {
		t.Errorf("columns misaligned: header at %d, row at %d\n%s", headerIdx, rowIdx, out)
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator missing:\n%s", out)
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tab := Table{Header: []string{"h"}, Rows: [][]string{{"v"}}}
	if strings.Contains(tab.String(), "===") {
		t.Error("untitled table should not render a title banner")
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{Series: []Series{
		{Label: "good, tuples", Points: []Point{{X: 1, Est: 2, Act: 3}}},
	}}
	csv := f.CSV()
	if !strings.Contains(csv, "good; tuples,1,2,3") {
		t.Errorf("figure csv escaping wrong:\n%s", csv)
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Header: []string{"a", "b"}, Rows: [][]string{{"x,y", "z"}}}
	csv := tab.CSV()
	if csv != "a,b\nx;y,z\n" {
		t.Errorf("table csv %q", csv)
	}
}
