// Package report formats experiment results as aligned ASCII tables, the
// textual equivalent of the paper's figures.
package report

import (
	"fmt"
	"strings"

	"hmg/internal/stats"
)

// Row is one labeled row of numeric cells.
type Row struct {
	Label string
	Cells []float64
}

// Table is a titled grid of rows. The zeroth column holds row labels.
type Table struct {
	Title   string
	Columns []string // column headers, excluding the label column
	Rows    []Row
	Notes   []string
	// Precision is the number of decimal places (default 2).
	Precision int
}

// Add appends a row.
func (t *Table) Add(label string, cells ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AddGeoMeanRow appends a row holding the per-column geometric mean of
// all current rows.
func (t *Table) AddGeoMeanRow(label string) {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Columns)
	cells := make([]float64, n)
	col := make([]float64, 0, len(t.Rows))
	for c := 0; c < n; c++ {
		col = col[:0]
		for _, r := range t.Rows {
			if c < len(r.Cells) {
				col = append(col, r.Cells[c])
			}
		}
		cells[c] = stats.GeoMean(col)
	}
	t.Add(label, cells...)
}

// Column returns all cell values of column c in row order.
func (t *Table) Column(c int) []float64 {
	var out []float64
	for _, r := range t.Rows {
		if c < len(r.Cells) {
			out = append(out, r.Cells[c])
		}
	}
	return out
}

// Cell returns the value at (row label, column header), or false.
func (t *Table) Cell(label, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == label && ci < len(r.Cells) {
			return r.Cells[ci], true
		}
	}
	return 0, false
}

// String renders the table.
func (t *Table) String() string {
	prec := t.Precision
	if prec == 0 {
		prec = 2
	}
	labelW := 4
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
		for _, r := range t.Rows {
			if i < len(r.Cells) {
				if w := len(formatCell(r.Cells[i], prec)); w > colW[i] {
					colW[i] = w
				}
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
		fmt.Fprintf(&b, "%s\n", strings.Repeat("=", len(t.Title)))
	}
	fmt.Fprintf(&b, "%-*s", labelW, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", colW[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", labelW, r.Label)
		for i := range t.Columns {
			if i < len(r.Cells) {
				fmt.Fprintf(&b, "  %*s", colW[i], formatCell(r.Cells[i], prec))
			} else {
				fmt.Fprintf(&b, "  %*s", colW[i], "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func formatCell(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}
