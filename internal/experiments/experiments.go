// Package experiments regenerates every table and figure of the paper's
// evaluation (§7): one generator per experiment, each returning a Table
// with the same rows/series the paper reports. Cluster-scale experiments
// run on the calibrated performance simulator; the func-* experiments
// additionally measure the functional Go implementation for real.
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

	"lowdiff/internal/storage"
	"lowdiff/internal/trace"
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

// dataPlaneParallelism is the pool width the functional experiments build
// their engines with (core Options.Parallelism); 0 or 1 keeps the data
// plane serial. Set through SetParallelism before running experiments.
var dataPlaneParallelism int

// SetParallelism sets the engine data-plane pool width used by the
// functional experiments. Results are bit-identical at any width
// (DESIGN.md §8); only wall-clock columns change.
func SetParallelism(n int) { dataPlaneParallelism = n }

// traceRecorder, when non-nil, is threaded into every functional
// experiment's engine so one lowdiffbench invocation yields a step-phase
// timeline alongside the tables. Set through SetTrace before running.
var traceRecorder *trace.Recorder

// SetTrace sets the span recorder the functional experiments record into.
// Nil (the default) disables tracing.
func SetTrace(rec *trace.Recorder) { traceRecorder = rec }

// storeURL, when non-empty, points the functional experiments at a shared
// lowdiffd checkpoint daemon ("tcp://host:port/tenant") instead of private
// in-memory stores. Set through SetStoreURL before running.
var storeURL string

// SetStoreURL routes every functional experiment's checkpoint traffic to a
// lowdiffd daemon. Each experiment gets its own tenant namespace —
// "<tenant>-<label>" — so concurrent experiments never collide, and each
// namespace is cleared before use so runs start from a clean slate.
// Results are bit-identical to the in-memory default; only the transport
// changes. Empty (the default) keeps experiments on storage.NewMem.
func SetStoreURL(u string) { storeURL = u }

// newStore returns the checkpoint store an experiment should persist to
// plus a release func for when the experiment is done with it. Labels are
// reused across a sweep's iterations; the clean-slate Clear between
// iterations keeps their manifests from bleeding into each other.
func newStore(label string) (storage.Store, func(), error) {
	if storeURL == "" {
		return storage.NewMem(), func() {}, nil
	}
	addr, tenant, err := storage.ParseURL(storeURL)
	if err != nil {
		return nil, nil, err
	}
	r, err := storage.DialRemote(addr, tenant+"-"+label, storage.RemoteOptions{})
	if err != nil {
		return nil, nil, err
	}
	if err := storage.Clear(r); err != nil {
		_ = r.Close() // the Clear failure is primary
		return nil, nil, err
	}
	return r, func() { _ = r.Close() }, nil
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
	for id := range registry {
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
