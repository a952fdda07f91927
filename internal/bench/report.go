package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// table is a small fixed-width text-table builder for experiment reports.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table {
	return &table{header: header}
}

func (t *table) addRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) addRowf(format string, cells ...interface{}) {
	parts := make([]string, len(cells))
	formats := strings.Split(format, "|")
	for i, c := range cells {
		f := "%v"
		if i < len(formats) && formats[i] != "" {
			f = formats[i]
		}
		parts[i] = fmt.Sprintf(f, c)
	}
	t.rows = append(t.rows, parts)
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// fmtVec renders a float slice the way the paper's tables do: "[a, b, ...]"
// with three decimals.
func fmtVec(xs []float64) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func sectionHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// writeJSON writes a report to path as indented JSON.
func writeJSON(path string, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
