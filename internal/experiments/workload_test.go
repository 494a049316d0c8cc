package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestWorkloadSweep(t *testing.T) {
	tb := mustRun(t, "workload")
	// Three rates × three classes.
	if len(tb.Rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(tb.Rows))
	}
	classes := map[string]int{}
	for i, row := range tb.Rows {
		classes[row[1]]++
		if cell(t, tb, i, 2) <= 0 {
			t.Fatalf("row %d: no jobs: %v", i, row)
		}
	}
	for _, c := range []string{"interactive", "batch", "urgent"} {
		if classes[c] != 3 {
			t.Fatalf("class %s appears %d times, want 3", c, classes[c])
		}
	}
	if !strings.Contains(strings.Join(tb.Notes, " "), "replay gate") {
		t.Fatalf("missing replay-gate note: %v", tb.Notes)
	}
	// The default sweep's ordering: the memo hit rate rises with the arrival
	// rate, and nothing is dropped at the base rate.
	var rates [3]float64
	for i := range rates {
		var jobs, hits float64
		for r := 3 * i; r < 3*i+3; r++ {
			jobs += cell(t, tb, r, 2)
			hits += cell(t, tb, r, 5)
		}
		rates[i] = hits / jobs
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Fatalf("memo hit rate does not rise with arrival rate: %v", rates)
	}
	for r := 3; r < 6; r++ {
		if tb.Rows[r][0] != "20" || cell(t, tb, r, 3) != 0 {
			t.Fatalf("base-rate row %v, want rate 20 with 0 drops", tb.Rows[r])
		}
	}
	// Deterministic: the rendered table is byte-identical across runs.
	if again := mustRun(t, "workload"); again.String() != tb.String() {
		t.Fatalf("workload experiment is not deterministic:\n%s\nvs\n%s", tb, again)
	}
}

// TestWorkloadRecordReplay: a -trace-out invocation and a -trace-in
// invocation of the written file print byte-identical tables, and the
// recorded file is a valid repro.workload.v1 trace.
func TestWorkloadRecordReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.wl.jsonl")

	rec := quick
	rec.WorkloadTraceOut = path
	recTb, err := Workload(rec)
	if err != nil {
		t.Fatalf("record: %v", err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Read(f)
	f.Close()
	if err != nil {
		t.Fatalf("recorded trace unreadable: %v", err)
	}
	if len(tr.Jobs) == 0 {
		t.Fatal("recorded trace is empty")
	}

	rep := quick
	rep.WorkloadTraceIn = path
	repTb, err := Workload(rep)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if recTb.String() != repTb.String() {
		t.Fatalf("record and replay tables differ:\n%s\nvs\n%s", recTb, repTb)
	}
	if repTb.Rows[0][0] != "base" {
		t.Fatalf("replay row labelled %q, want base", repTb.Rows[0][0])
	}
}

// TestWorkloadSpecString: the -workload mini-language parses, overrides
// generation, and rejects junk.
func TestWorkloadSpecString(t *testing.T) {
	cfg := quick
	cfg.WorkloadSpec = "jobs=120,rates=1,seed=9,policy=fifo"
	tb, err := Workload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 { // one rate, three classes
		t.Fatalf("got %d rows, want 3", len(tb.Rows))
	}
	total := 0.0
	for i := range tb.Rows {
		total += cell(t, tb, i, 2)
	}
	if total != 120 {
		t.Fatalf("jobs=120 generated %v submissions", total)
	}

	for _, bad := range []string{"jobs", "jobs=x", "rates=", "nope=1", "rate=0"} {
		cfg.WorkloadSpec = bad
		if _, err := Workload(cfg); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// Non-finite values are parse errors: past the parser they would never
	// end the generator's arrival loop, so these are not run.
	for _, bad := range []string{"rate=NaN", "rate=+Inf", "rates=1;NaN", "rates=Inf", "rates=1;-1", "horizon=NaN", "horizon=+Inf", "horizon=-Inf"} {
		if _, err := parseWorkloadSpec(bad); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}

	// An unknown policy is an error at the door that names it, not a panic
	// inside the cluster.
	cfg.WorkloadSpec = "jobs=20,rates=1,policy=nope"
	if _, err := Workload(cfg); err == nil || !strings.Contains(err.Error(), `unknown policy "nope"`) {
		t.Errorf("spec %q: error %v, want one naming the policy", cfg.WorkloadSpec, err)
	}

	both := quick
	both.WorkloadTraceOut = "a"
	both.WorkloadTraceIn = "b"
	if _, err := Workload(both); err == nil {
		t.Error("-trace-out with -trace-in accepted")
	}
}
