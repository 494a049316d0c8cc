// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated Hopper-like cluster. Each experiment
// returns a Table of the same rows/series the paper reports; EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is one experiment's output: headers, rows, and free-form notes
// (headline numbers, paper comparisons).
type Table struct {
	ID      string // "table1", "fig9", ...
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
	// Chart, when non-empty, is an ASCII rendering of the figure.
	Chart string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Notef appends a formatted note.
func (t *Table) Notef(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Headers, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	if t.Chart != "" {
		fmt.Fprint(w, t.Chart)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// secs formats a duration in seconds.
func secs(s float64) string { return fmt.Sprintf("%.3f", s) }

// ratio formats a dimensionless factor.
func ratio(x float64) string { return fmt.Sprintf("%.2f", x) }

// TableI reproduces the paper's Table I, the data requirements of
// representative INCITE applications at ALCF (static data quoted from the
// paper, which quotes Ross et al.).
func TableI() *Table {
	t := &Table{
		ID:      "table1",
		Title:   "Data Requirements of Representative INCITE Applications at ALCF",
		Headers: []string{"Project", "On-Line Data", "Off-Line Data"},
	}
	rows := [][]string{
		{"FLASH: Buoyancy-Driven Turbulent Nuclear Burning", "75TB", "300TB"},
		{"Reactor Core Hydrodynamics", "2TB", "5TB"},
		{"Computational Nuclear Structure", "4TB", "40TB"},
		{"Computational Protein Structure", "1TB", "2TB"},
		{"Performance Evaluation and Analysis", "1TB", "1TB"},
		{"Climate Science", "10TB", "345TB"},
		{"Parkinson's Disease", "2.5TB", "50TB"},
		{"Plasma Microturbulence", "2TB", "10TB"},
		{"Lattice QCD", "1TB", "44TB"},
		{"Thermal Striping in Sodium Cooled Reactors", "4TB", "8TB"},
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notef("static table quoted from the paper (motivational, not measured)")
	return t
}
