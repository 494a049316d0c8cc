package experiments

import (
	"strconv"
	"strings"
	"testing"
)

var quick = Config{Scale: 0.02, Quick: true}

func mustRun(t *testing.T, id string) *Table {
	t.Helper()
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("no runner %q", id)
	}
	tb, err := r.Run(quick)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tb.ID != id {
		t.Fatalf("runner %s produced table %s", id, tb.ID)
	}
	if len(tb.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	if s := tb.String(); !strings.Contains(s, tb.Title) {
		t.Fatalf("%s render missing title", id)
	}
	return tb
}

func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s[%d][%d] = %q not numeric", tb.ID, row, col, tb.Rows[row][col])
	}
	return v
}

func TestTableI(t *testing.T) {
	tb := mustRun(t, "table1")
	if len(tb.Rows) != 10 {
		t.Fatalf("%d rows, want 10", len(tb.Rows))
	}
}

func TestFig1(t *testing.T) {
	tb := mustRun(t, "fig1")
	// Per-iteration times must be non-negative and mostly positive reads.
	var posRead int
	for i := range tb.Rows {
		if cell(t, tb, i, 1) > 0 {
			posRead++
		}
		if cell(t, tb, i, 2) < 0 {
			t.Fatal("negative shuffle time")
		}
	}
	if posRead == 0 {
		t.Fatal("no positive read times")
	}
	// The shuffle-overhead note must be present.
	joined := strings.Join(tb.Notes, " ")
	if !strings.Contains(joined, "shuffle overhead") {
		t.Fatalf("missing overhead note: %v", tb.Notes)
	}
}

func TestFig2And3WaitShares(t *testing.T) {
	f2 := mustRun(t, "fig2")
	f3 := mustRun(t, "fig3")
	// Percent columns must be sane.
	for _, tb := range []*Table{f2, f3} {
		for i := range tb.Rows {
			total := cell(t, tb, i, 1) + cell(t, tb, i, 2) + cell(t, tb, i, 3)
			if total < 99 || total > 101 {
				t.Fatalf("%s row %d sums to %g%%", tb.ID, i, total)
			}
		}
	}
}

func TestFig9SpeedupShape(t *testing.T) {
	tb := mustRun(t, "fig9")
	if len(tb.Rows) != 7 {
		t.Fatalf("%d ratios", len(tb.Rows))
	}
	// Every speedup positive; CC wins at 1:1 (row 3).
	for i := range tb.Rows {
		if cell(t, tb, i, 3) <= 0 {
			t.Fatalf("row %d speedup %g", i, cell(t, tb, i, 3))
		}
	}
	if sp := cell(t, tb, 3, 3); sp <= 1.0 {
		t.Fatalf("1:1 speedup %g, want > 1", sp)
	}
}

func TestFig10Speedups(t *testing.T) {
	tb := mustRun(t, "fig10")
	for i := range tb.Rows {
		if sp := cell(t, tb, i, 3); sp <= 0.8 {
			t.Fatalf("scale row %d speedup %g", i, sp)
		}
	}
}

func TestFig11OverheadShape(t *testing.T) {
	tb := mustRun(t, "fig11")
	for i := range tb.Rows {
		c40, c80 := cell(t, tb, i, 2), cell(t, tb, i, 3)
		if c80 < c40 {
			t.Fatalf("row %d: CC-80G (%g) below CC-40G (%g)", i, c80, c40)
		}
	}
	// Overhead should not grow with process count (strong scaling).
	if len(tb.Rows) >= 2 {
		if cell(t, tb, len(tb.Rows)-1, 1) > cell(t, tb, 0, 1)*1.5 {
			t.Fatal("MPI overhead grows with processes")
		}
	}
}

func TestFig12MetadataShrinks(t *testing.T) {
	tb := mustRun(t, "fig12")
	first := cell(t, tb, 0, 1)
	last := cell(t, tb, len(tb.Rows)-1, 1)
	if last > first {
		t.Fatalf("metadata grew with buffer size: %g -> %g", first, last)
	}
}

func TestFig13Speedup(t *testing.T) {
	tb := mustRun(t, "fig13")
	for i := range tb.Rows {
		if sp := cell(t, tb, i, 3); sp <= 0.8 {
			t.Fatalf("row %d speedup %g", i, sp)
		}
	}
}

func TestJobsSchedulingBeatsSerial(t *testing.T) {
	// The experiment itself errors if results are not bit-identical or
	// concurrent does not beat serial; the table must say so row by row.
	tb := mustRun(t, "jobs")
	for i := range tb.Rows {
		if tb.Rows[i][6] != "true" {
			t.Fatalf("row %d not bit-identical: %v", i, tb.Rows[i])
		}
	}
}

// TestJobsSchedulerBench: the runner errors unless rank-pool utilization is
// in (0, 100] and the critical path holds a job; the per-job columns those
// roll-ups are built from must be sane too.
func TestJobsSchedulerBench(t *testing.T) {
	tb := mustRun(t, "jobs")
	for i := range tb.Rows {
		if d := cell(t, tb, i, 4); d <= 0 {
			t.Fatalf("row %d concurrent service %g, want > 0", i, d)
		}
		if w := cell(t, tb, i, 5); w < 0 {
			t.Fatalf("row %d queue wait %g", i, w)
		}
	}
}

func TestSchedPolicies(t *testing.T) {
	tb := mustRun(t, "sched-policies")
	// The experiment errors internally unless easy-backfill strictly beats
	// fifo's makespan with backfills, neither it nor fairshare is less fair
	// than fifo, and no policy drops a job.
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows, want one per policy", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if j := cell(t, tb, i, 4); j <= 0 || j > 1 {
			t.Fatalf("%s jain = %g outside (0,1]", row[0], j)
		}
	}
	// Deterministic: the rendered table is byte-identical across runs.
	if again := mustRun(t, "sched-policies"); again.String() != tb.String() {
		t.Fatalf("sched-policies not deterministic:\n%s\nvs\n%s", tb, again)
	}
}

func TestMultiuserMemoization(t *testing.T) {
	tb := mustRun(t, "multiuser")
	// The experiment errors internally unless warm results are bit-identical
	// to cold runs, the warm makespan wins, and cache hits, waiters and
	// coalesced reads each engage with bytes saved.
	for i := range tb.Rows {
		if tb.Rows[i][4] != "true" {
			t.Fatalf("row %d not bit-identical: %v", i, tb.Rows[i])
		}
	}
	// Deterministic: the rendered table (timings included) is byte-identical
	// across runs.
	if again := mustRun(t, "multiuser"); again.String() != tb.String() {
		t.Fatalf("multiuser experiment is not deterministic:\n%s\nvs\n%s", tb, again)
	}
}

func TestProfileJobs(t *testing.T) {
	tb := mustRun(t, "profile-jobs")
	// Every job must show positive service time and a positive phase total.
	for i := range tb.Rows {
		if cell(t, tb, i, 2) <= 0 {
			t.Fatalf("row %d service %v", i, tb.Rows[i][2])
		}
		total := cell(t, tb, i, 3) + cell(t, tb, i, 4) + cell(t, tb, i, 5) + cell(t, tb, i, 6)
		if total <= 0 {
			t.Fatalf("row %d: no phase time recorded: %v", i, tb.Rows[i])
		}
	}
	joined := strings.Join(tb.Notes, " ")
	if !strings.Contains(joined, "critical path") {
		t.Fatalf("missing critical-path note: %v", tb.Notes)
	}
}

func TestAllRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		if ids[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
	}
	for _, want := range []string{"table1", "fig1", "fig2", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "faults", "jobs", "sched-policies", "multiuser", "profile-jobs", "explain", "workload"} {
		if !ids[want] {
			t.Fatalf("missing %s", want)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id resolved")
	}
}

func TestFormatHelpers(t *testing.T) {
	if secs(1.23456) != "1.235" {
		t.Error(secs(1.23456))
	}
	if ratio(1.5) != "1.50" {
		t.Error(ratio(1.5))
	}
}

func TestTableRenderIncludesChartAndNotes(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Headers: []string{"a"}, Chart: "CHART\n"}
	tb.AddRow("1")
	tb.Notef("note %d", 7)
	s := tb.String()
	for _, want := range []string{"CHART", "# note 7", "== x: T =="} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}
