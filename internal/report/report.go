// Package report renders the study's tables and figure series as aligned
// text, the output format of cmd/repro. Figures become series tables: one
// row per x-value (year or percentile), one column per plotted line.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	// Title is printed above the grid.
	Title string
	// Note, if set, is printed under the title.
	Note string
	// Headers label the columns.
	Headers []string
	// Rows are the data cells; short rows are padded with empty cells.
	Rows [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "  (%s)\n", t.Note)
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(cols-1)) + "\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// F formats a float with a sensible precision for reliability metrics:
// large values get no decimals, small ones gain precision.
func F(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// SortedInts returns a map's int keys sorted, for deterministic output.
func SortedInts[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// RenderCSV writes the table as RFC-4180 CSV (headers first), for piping
// experiment output into plotting tools.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.Headers) > 0 {
		if err := cw.Write(t.Headers); err != nil {
			return err
		}
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
