package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table: the classic chabench rendering, and
// cmd/visim's.
type Table struct {
	Title  string
	Notes  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render writes the table to w with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F formats a float with 2 decimals.
func F(x float64) string { return fmt.Sprintf("%.2f", x) }

// B formats a boolean as yes/no.
func B(x bool) string {
	if x {
		return "yes"
	}
	return "no"
}

// Series accumulates float64 observations for a mean. The zero value is
// ready to use.
type Series struct {
	vals []float64
}

// Add appends an observation.
func (s *Series) Add(v float64) { s.vals = append(s.vals, v) }

// AddInt appends an integer observation.
func (s *Series) AddInt(v int) { s.Add(float64(v)) }

// N returns the number of observations.
func (s *Series) N() int { return len(s.vals) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}
