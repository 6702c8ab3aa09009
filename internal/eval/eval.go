// Package eval provides the reporting primitives of the experiment harness:
// estimated-vs-actual series (the paper's figures), text tables (the paper's
// Table II), and accuracy summaries.
package eval

import (
	"fmt"
	"math"
	"strings"
)

// Point is one x-position of an estimated-vs-actual comparison.
type Point struct {
	X   float64 // usually a percentage of effort
	Est float64
	Act float64
}

// Series is a labelled estimated-vs-actual curve.
type Series struct {
	Label  string
	XLabel string
	Points []Point
}

// String renders the series as an aligned text table.
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Label)
	x := s.XLabel
	if x == "" {
		x = "x"
	}
	fmt.Fprintf(&b, "  %-28s %14s %14s %8s\n", x, "estimated", "actual", "est/act")
	for _, p := range s.Points {
		ratio := "-"
		if p.Act != 0 {
			ratio = fmt.Sprintf("%.2f", p.Est/p.Act)
		}
		fmt.Fprintf(&b, "  %-28.0f %14.1f %14.1f %8s\n", p.X, p.Est, p.Act, ratio)
	}
	return b.String()
}

// MeanAbsRelErr returns the mean |est−act|/act over points with nonzero
// actuals; NaN when no point qualifies.
func (s Series) MeanAbsRelErr() float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.Act != 0 {
			sum += math.Abs(p.Est-p.Act) / math.Abs(p.Act)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Figure groups the series of one reproduced paper figure.
type Figure struct {
	ID     string // e.g. "Figure 9"
	Title  string
	Series []Series
}

// String renders the figure.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", f.ID, f.Title)
	for _, s := range f.Series {
		b.WriteString(s.String())
	}
	return b.String()
}

// Table is a simple aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with per-column alignment.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders every series of the figure, prefixing each row with the
// series label.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("series,x,estimated,actual\n")
	for _, s := range f.Series {
		label := strings.ReplaceAll(s.Label, ",", ";")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g,%g\n", label, p.X, p.Est, p.Act)
		}
	}
	return b.String()
}

// CSV renders the table as comma-separated rows (cells containing commas
// are replaced with semicolons).
func (t Table) CSV() string {
	var b strings.Builder
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strings.ReplaceAll(c, ",", ";"))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}
