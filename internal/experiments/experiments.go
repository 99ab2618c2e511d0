// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the calibrated performance simulator: one generator
// per experiment, each returning a Table with the same rows/series the
// paper reports. Every generator is deterministic — no wall-clock reads,
// no engine runs — so a table's bytes depend only on the code. Measurements
// of the functional implementation live in bench/ (paired workloads) and in
// the tests of the packages that own each mechanism.
//
// Absolute numbers are not expected to match the authors' testbed — the
// shapes (who wins, rough factors, crossovers) are the reproduction target.
// EXPERIMENTS.md records paper-vs-measured for each entry.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string // paper-vs-measured commentary
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
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
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as RFC-4180 CSV with a leading comment line
// naming the experiment.
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Generator produces one experiment's table.
type Generator func() (*Table, error)

// registry maps experiment IDs to generators; Register is called from each
// experiment file's init.
var registry = map[string]Generator{}

func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = g
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry { //lint:allow determinism keys are sorted below; nothing leaves in map order
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run generates one experiment by ID.
func Run(id string) (*Table, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return g()
}

// RunAll generates every experiment in ID order.
func RunAll() ([]*Table, error) {
	var out []*Table
	for _, id := range IDs() {
		t, err := Run(id)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Formatting helpers shared by the generators.

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// bytesIEC renders byte counts the way the paper's storage table does.
func bytesIEC(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}
