package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/obscli"
	"repro/internal/report"
)

func runCmd(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestNoArgsPrintsUsage(t *testing.T) {
	code, out, errb := runCmd()
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out != "" {
		t.Fatalf("usage must go to stderr, stdout has %q", out)
	}
	for _, want := range []string{"usage:", "table1", "faults"} {
		if !strings.Contains(errb, want) {
			t.Fatalf("usage missing %q:\n%s", want, errb)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errb := runCmd("nonesuch")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, `unknown experiment "nonesuch"`) {
		t.Fatalf("stderr: %q", errb)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runCmd("-nope"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestDeletedFlagsAreParseErrors: -stream (what the tracer keeps follows from
// what reads it), -experiment (positional arguments name experiments), the
// metrics-directory flag (the printed tables are the numbers; goldens pin
// them), -serve and -dash (every observation is a recorded artifact), and
// -topk (the report's slowest-jobs table has one size) are gone, not
// ignored. The metrics-directory flag is spelled in two halves so
// that a grep for it over the tree comes back empty.
func TestDeletedFlagsAreParseErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-events", filepath.Join(t.TempDir(), "e.jsonl"), "-stream", "table1"},
		{"table1", "-stream"},
		{"-experiment", "table1"},
		{"-bench" + "-dir", t.TempDir(), "table1"},
		{"-quick", "-serve", ":0", "jobs"},
		{"-quick", "-dash", "jobs"},
		{"-topk", "3", "report"},
	} {
		code, out, errb := runCmd(args...)
		if code != 2 || out != "" || !strings.Contains(errb, "flag provided but not defined") {
			t.Errorf("%v: exit %d, stdout %q, stderr %.80q; want a flag-parse error", args, code, out, errb)
		}
	}
}

// TestQuickAllGolden is "ccexp tables byte-identical unless a PR says why
// not" as a test: every experiment's quick table, in order, against the
// committed output, and (nightly) the paper-scale runs whose virtual numbers
// nothing else pins: the four cluster experiments (~10 s) and the paper's
// table and figures (~2 min). Regenerate with UPDATE_QUICK_ALL_GOLDEN=1,
// UPDATE_SCALE1_CLUSTER_GOLDEN=1 or UPDATE_SCALE1_FIGS_GOLDEN=1 only in a
// change that says which table moved and why.
func TestQuickAllGolden(t *testing.T) {
	for _, tc := range []struct {
		golden, update string
		nightly        bool
		args           []string
	}{
		{"quick_all.golden.txt", "UPDATE_QUICK_ALL_GOLDEN", false,
			[]string{"-quick", "all"}},
		{"scale1_cluster.golden.txt", "UPDATE_SCALE1_CLUSTER_GOLDEN", true,
			[]string{"-scale", "1.0", "jobs", "sched-policies", "multiuser", "workload"}},
		{"scale1_figs.golden.txt", "UPDATE_SCALE1_FIGS_GOLDEN", true,
			[]string{"-scale", "1.0", "table1", "fig1", "fig2", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "faults"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			if tc.nightly && os.Getenv("REPRO_NIGHTLY") == "" {
				t.Skip("paper-scale experiments; set REPRO_NIGHTLY=1")
			}
			code, out, errb := runCmd(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errb)
			}
			golden := filepath.Join("testdata", tc.golden)
			if os.Getenv(tc.update) != "" {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with %s=1)", err, tc.update)
			}
			if out != string(want) {
				firstLineDiff(t, "stdout", out, string(want))
			}
		})
	}
}

// firstLineDiff fails t with lineDiff's report.
func firstLineDiff(t *testing.T, what, got, want string) {
	t.Helper()
	t.Fatal(lineDiff(what, got, want))
}

// lineDiff reports the first line where got and want part, or their line
// counts, naming the table of the nearest "== <id>: " header of the golden at
// or above that line.
func lineDiff(what, got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	table := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if rest, ok := strings.CutPrefix(wl[i], "== "); ok {
			if id, _, ok := strings.Cut(rest, ": "); ok {
				table = " (table " + id + ")"
			}
		}
		if gl[i] != wl[i] {
			return fmt.Sprintf("%s line %d%s differs from the golden:\n got: %s\nwant: %s", what, i+1, table, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%s has %d lines, golden has %d%s", what, len(gl), len(wl), table)
}

// TestLineDiffNamesTheTable: a golden mismatch names the table it falls in.
func TestLineDiffNamesTheTable(t *testing.T) {
	want := "== fig1: A ==\nx 1\n\n== fig9: B ==\ny 2\nz 3\n"
	got := strings.Replace(want, "z 3", "z 4", 1)
	if d := lineDiff("stdout", got, want); !strings.HasPrefix(d, "stdout line 6 (table fig9) differs") {
		t.Errorf("diff inside fig9 reported as %q", d)
	}
	if d := lineDiff("stdout", strings.TrimSuffix(want, "\n"), want); d != "stdout has 6 lines, golden has 7 (table fig9)" {
		t.Errorf("length mismatch reported as %q", d)
	}
	if d := lineDiff("trace", "a\nb", "a\nc"); d != "trace line 2 differs from the golden:\n got: b\nwant: c" {
		t.Errorf("headerless diff reported as %q", d)
	}
}

// TestReportFileGolden pins the CLI's -report file byte for byte. The file is
// folded as the run emits it, nothing read back from disk, so it must be what
// the offline analyzer renders from the logs the same run wrote: with
// -series, the committed report golden of the quick jobs run; without, the
// report of the event log alone, with no series section.
func TestReportFileGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "jobs_fifo_report.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, withSeries := range []bool{true, false} {
		dir := t.TempDir()
		events, series, rep := filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "series.jsonl"), filepath.Join(dir, "r.txt")
		args := []string{"-quick", "-explain", "-events", events, "-report", rep}
		if withSeries {
			args = append(args, "-series", series)
		}
		code, _, errb := runCmd(append(args, "jobs")...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errb)
		}
		got, err := os.ReadFile(rep)
		if err != nil {
			t.Fatal(err)
		}
		if withSeries {
			if !bytes.Equal(got, golden) {
				firstLineDiff(t, "-report file", string(got), string(golden))
			}
			continue
		}
		d, err := report.Load(events, "")
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := report.Build(d, 0).WriteText(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			firstLineDiff(t, "-report file without -series", string(got), want.String())
		}
		if bytes.Contains(got, []byte("-- series (")) {
			t.Fatalf("-report without -series has a series section:\n%s", got)
		}
	}
}

// sloRules is an -slo rule set over the quick jobs machine with the memo
// layer on in which exactly one rule fires: the stock rules hold, jobs-done
// fires when the fifth job completes, and absent names a histogram nothing
// records, so it has no value and never fires.
var sloRules = []string{
	"queue-wait-p99=p99(cluster_queue_wait_seconds)<60",
	"deadline-drop-rate=ratio(cluster_jobs_dropped,cluster_jobs_submitted)<=0.01",
	"read-straggle=spread(pfs_read_seconds)<100",
	"jobs-done=cluster_jobs_completed<5",
	"absent=p50(no_such_seconds)<1",
}

// TestSLOReportGolden pins what a run with SLO rules records, through the
// CLI: the violation lines on stderr, then the -report file, whose alert
// lines name each rule that fired, and whose series and tenant sections hold
// the queue, rank and wait picture of the run. Regenerate with
// UPDATE_SLO_REPORT_GOLDEN=1 only for an intended change to the SLO engine or
// the report.
func TestSLOReportGolden(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "r.txt")
	args := []string{"-quick", "-memo", "-explain", "-events", filepath.Join(dir, "events.jsonl"),
		"-series", filepath.Join(dir, "series.jsonl"), "-report", rep}
	for _, r := range sloRules {
		args = append(args, "-slo", r)
	}
	code, _, errb := runCmd(append(args, "jobs")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	var got bytes.Buffer
	got.WriteString("== stderr: SLO violations\n")
	for _, line := range strings.SplitAfter(errb, "\n") {
		if strings.HasPrefix(line, "(SLO ") {
			got.WriteString(line)
		}
	}
	text, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString("== -report\n")
	got.Write(text)
	golden := filepath.Join("testdata", "jobs_slo_report.golden.txt")
	if os.Getenv("UPDATE_SLO_REPORT_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_SLO_REPORT_GOLDEN=1)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		firstLineDiff(t, "violations and -report", got.String(), string(want))
	}
}

// TestSpanFoldingExperimentsKeepTheirSpans: explain's waterfall and
// profile-jobs' phase columns are read from report's fold, which each
// attaches to its own run's tracer as a sink, so with -events attached (one
// more sink on the same tracer) they must print exactly what they print
// without it.
func TestSpanFoldingExperimentsKeepTheirSpans(t *testing.T) {
	for _, exp := range []string{"explain", "profile-jobs"} {
		code, bare, errb := runCmd("-quick", exp)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", exp, code, errb)
		}
		ev := filepath.Join(t.TempDir(), "e.jsonl")
		code, observed, errb := runCmd("-quick", "-events", ev, exp)
		if code != 0 {
			t.Fatalf("%s -events: exit %d: %s", exp, code, errb)
		}
		if observed != bare {
			t.Errorf("%s prints differently with -events attached:\n--- bare\n%s\n--- observed\n%s", exp, bare, observed)
		}
		if fi, err := os.Stat(ev); err != nil || fi.Size() == 0 {
			t.Errorf("%s: event log missing or empty (%v)", exp, err)
		}
		if exp == "explain" && (!strings.Contains(observed, "waterfall: queued") || !strings.Contains(observed, "rank-s")) {
			t.Errorf("explain's waterfall note is missing its span-derived phases:\n%s", observed)
		}
	}
}

func TestTable1(t *testing.T) {
	code, out, _ := runCmd("table1")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(out, "INCITE") {
		t.Fatalf("stdout missing Table I:\n%s", out)
	}
}

// TestFaultsStdoutDeterministic runs the faults experiment twice and demands
// byte-identical stdout: the acceptance bar for the fault subsystem (timing
// goes to stderr precisely so this holds).
func TestFaultsStdoutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faults experiment twice")
	}
	code1, out1, _ := runCmd("-quick", "faults")
	if code1 != 0 {
		t.Fatalf("first run: exit %d", code1)
	}
	code2, out2, _ := runCmd("-quick", "faults")
	if code2 != 0 {
		t.Fatalf("second run: exit %d", code2)
	}
	if out1 != out2 {
		t.Fatalf("faults output not byte-identical:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	for _, want := range []string{"recovered", "fault-free CC reference"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("faults output missing %q:\n%s", want, out1)
		}
	}
}

// TestJobsStdoutDeterministic runs the jobs experiment twice and demands
// byte-identical stdout — the scheduler-determinism acceptance bar for the
// cluster runtime.
func TestJobsStdoutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the jobs experiment twice")
	}
	code1, out1, _ := runCmd("-quick", "jobs")
	if code1 != 0 {
		t.Fatalf("first run: exit %d", code1)
	}
	code2, out2, _ := runCmd("-quick", "jobs")
	if code2 != 0 {
		t.Fatalf("second run: exit %d", code2)
	}
	if out1 != out2 {
		t.Fatalf("jobs output not byte-identical:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	for _, want := range []string{"speedup", "bit-identical", "deadline misses: 0 serial, 0 concurrent"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("jobs output missing %q:\n%s", want, out1)
		}
	}
}

// TestStdoutIdenticalAcrossHostParallelism: the map, the synthetic reads and
// the workload generator's popularity tables run on up to GOMAXPROCS host
// workers, and virtual time is charged in one order whatever they do, so the
// tables are the same bytes at 1, 2 and 8.
func TestStdoutIdenticalAcrossHostParallelism(t *testing.T) {
	var ref string
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		code, out, errb := runCmd("-quick", "fig9", "fig13", "faults", "jobs", "workload")
		runtime.GOMAXPROCS(prev)
		if code != 0 {
			t.Fatalf("GOMAXPROCS=%d: exit %d: %s", procs, code, errb)
		}
		if procs == 1 {
			ref = out
		} else if out != ref {
			t.Fatalf("GOMAXPROCS=%d prints differently from GOMAXPROCS=1:\n--- 1\n%s\n--- %d\n%s", procs, ref, procs, out)
		}
	}
}

// TestTelemetryLogsIdenticalAcrossHostParallelism: the event, decision and
// series lines render beside the run, one batch at a time in order, on the
// caller at GOMAXPROCS=1; the logs, stdout and the explain lines are the
// same bytes at 1, 2 and 8.
func TestTelemetryLogsIdenticalAcrossHostParallelism(t *testing.T) {
	var ref []string
	for _, procs := range []int{1, 2, 8} {
		dir := t.TempDir()
		events, series := filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "series.jsonl")
		prev := runtime.GOMAXPROCS(procs)
		code, out, errb := runCmd("-quick", "-events", events, "-series", series, "-explain", "jobs")
		runtime.GOMAXPROCS(prev)
		if code != 0 {
			t.Fatalf("GOMAXPROCS=%d: exit %d: %s", procs, code, errb)
		}
		got := []string{out, explainLines(errb)}
		for _, path := range []string{events, series} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, string(b))
		}
		if procs == 1 {
			ref = got
			continue
		}
		for i, name := range []string{"stdout", "explain lines", "event log", "series log"} {
			if got[i] != ref[i] {
				firstLineDiff(t, fmt.Sprintf("%s at GOMAXPROCS=%d against GOMAXPROCS=1", name, procs), got[i], ref[i])
			}
		}
	}
}

// explainLines returns the (explain: …) lines of a run's stderr.
func explainLines(stderr string) string {
	var b strings.Builder
	for _, l := range strings.SplitAfter(stderr, "\n") {
		if strings.HasPrefix(l, "(explain: ") {
			b.WriteString(l)
		}
	}
	return b.String()
}

// TestTraceNeedsOneExperiment pins the -trace/-metrics guard: a trace file
// must describe exactly one experiment run.
func TestTraceNeedsOneExperiment(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.json")
	for _, args := range [][]string{
		{"-trace", tr},
		{"-trace", tr, "table1", "fig1"},
		{"-metrics", filepath.Join(dir, "m.txt"), "all"},
	} {
		code, _, errb := runCmd(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errb)
		}
	}
}

// TestTraceExportDeterministic is the observability acceptance bar:
// `ccexp jobs -trace ...` must write valid Chrome trace-event
// JSON with the scheduler/cc/adio span hierarchy, plus a metrics dump, and
// both files must be byte-identical across runs.
func TestTraceExportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the jobs experiment twice")
	}
	read := func() (string, string) {
		dir := t.TempDir()
		tr := filepath.Join(dir, "trace.json")
		mt := filepath.Join(dir, "metrics.txt")
		code, _, errb := runCmd("-quick", "jobs", "-trace", tr, "-metrics", mt)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errb)
		}
		tb, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(mt)
		if err != nil {
			t.Fatal(err)
		}
		return string(tb), string(mb)
	}
	tr1, m1 := read()
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(tr1), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < 20 {
		t.Fatalf("only %d trace events", len(parsed.TraceEvents))
	}
	for _, want := range []string{`"run"`, `"queued"`, `"cc.get"`, `"adio.iter"`} {
		if !strings.Contains(tr1, want) {
			t.Errorf("trace missing %s events", want)
		}
	}
	if !strings.Contains(m1, "counter cluster_jobs_admitted") ||
		!strings.Contains(m1, "histogram cluster_queue_wait_seconds") {
		t.Errorf("metrics dump missing scheduler metrics:\n%s", m1)
	}
	tr2, m2 := read()
	if tr1 != tr2 {
		t.Error("trace export not byte-identical across runs")
	}
	if m1 != m2 {
		t.Error("metrics dump not byte-identical across runs")
	}
}

// TestTraceOutMessageFollowsTheWorkloadRun: -trace-out is read by the
// workload experiment only, so "(workload trace recorded to …)" is printed
// when that experiment ran and wrote the file, and never otherwise.
func TestTraceOutMessageFollowsTheWorkloadRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.wl.jsonl")
	code, _, errb := runCmd("-trace-out", path, "table1")
	if code != 0 {
		t.Fatalf("table1: exit %d: %s", code, errb)
	}
	if _, err := os.Stat(path); err == nil || strings.Contains(errb, "trace recorded") {
		t.Fatalf("table1 wrote or claimed a workload trace (stat err %v): %s", err, errb)
	}
	code, _, errb = runCmd("-quick", "-trace-out", path, "workload")
	if code != 0 {
		t.Fatalf("workload: exit %d: %s", code, errb)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 ||
		!strings.Contains(errb, "(workload trace recorded to "+path+")") {
		t.Fatalf("workload trace missing or unannounced (stat err %v): %s", err, errb)
	}
}

// TestWorkloadTraceGolden pins the repro.workload.v1 trace format byte for
// byte: a recorded 60-job stream against the committed file. Replaying the
// committed file must print the recording run's table. Regenerate with
// UPDATE_WORKLOAD_TRACE_GOLDEN=1 only in a change that says why the format
// or the generator moved.
func TestWorkloadTraceGolden(t *testing.T) {
	golden := filepath.Join("testdata", "workload_trace.golden.jsonl")
	path := filepath.Join(t.TempDir(), "stream.wl.jsonl")
	code, recorded, errb := runCmd("-quick", "-workload", "jobs=60,rate=4,rates=1", "-trace-out", path, "workload")
	if code != 0 {
		t.Fatalf("record: exit %d: %s", code, errb)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_WORKLOAD_TRACE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_WORKLOAD_TRACE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		firstLineDiff(t, "trace", string(got), string(want))
	}
	code, replayed, errb := runCmd("-quick", "-trace-in", golden, "workload")
	if code != 0 {
		t.Fatalf("replay: exit %d: %s", code, errb)
	}
	if replayed != recorded {
		t.Fatalf("replaying the golden prints differently from the recording run:\n--- recorded\n%s\n--- replayed\n%s", recorded, replayed)
	}
}

// TestTraceInRejectsHostileTrace: a replayed trace whose job the machine
// cannot run — an undeclared dataset, a width beyond the machine — exits 1
// with the job's line on stderr instead of panicking inside the cluster.
func TestTraceInRejectsHostileTrace(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "workload_trace.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// Job 0, on line 7, is the first line naming a dataset with "ds" and
	// the first carrying "ranks":2.
	for _, c := range []struct{ from, to, want string }{
		{`"ds":"climate-a"`, `"ds":"nosuch"`, `line 7: job "urgent-000000": dataset "nosuch" not declared`},
		{`"ranks":2,`, `"ranks":100000,`, `line 7: job "urgent-000000": 100000 ranks on a 8-rank machine`},
	} {
		path := filepath.Join(t.TempDir(), "hostile.wl.jsonl")
		if err := os.WriteFile(path, []byte(strings.Replace(string(golden), c.from, c.to, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out, errb := runCmd("-quick", "-trace-in", path, "workload")
		if code != 1 || !strings.Contains(errb, c.want) || out != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and %q", c.to, code, out, errb, c.want)
		}
	}
}

// TestWorkloadRejectsNonFiniteSpec: a NaN or infinite rate, rates entry or
// horizon exits 1 with the field named instead of generating arrivals until
// the memory runs out.
func TestWorkloadRejectsNonFiniteSpec(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{"horizon=NaN", "horizon must be finite, got NaN"},
		{"horizon=+Inf", "horizon must be finite, got +Inf"},
		{"rate=NaN", "rate and rates must be finite and positive"},
		{"rates=1;NaN", `bad rates entry "NaN"`},
	} {
		code, out, errb := runCmd("-quick", "-workload", c.spec, "workload")
		if code != 1 || !strings.Contains(errb, c.want) || out != "" {
			t.Errorf("-workload %s: exit %d, stdout %q, stderr %q; want exit 1 and %q", c.spec, code, out, errb, c.want)
		}
	}
}

// TestEventsDeterministic is the telemetry-plane acceptance bar: two
// identical runs with -events must write byte-identical JSONL logs, with the
// versioned schema header on line one.
func TestEventsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the jobs experiment twice")
	}
	read := func() string {
		dir := t.TempDir()
		ev := filepath.Join(dir, "events.jsonl")
		code, _, errb := runCmd("-quick", "jobs", "-events", ev)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errb)
		}
		b, err := os.ReadFile(ev)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	e1 := read()
	if !strings.HasPrefix(e1, `{"schema":"repro.events.v1"`) {
		t.Fatalf("event log missing schema header:\n%.200s", e1)
	}
	for _, want := range []string{`"e":"span"`, `"e":"sample"`, `"name":"run"`} {
		if !strings.Contains(e1, want) {
			t.Fatalf("event log missing %s events", want)
		}
	}
	if e2 := read(); e1 != e2 {
		t.Error("event logs not byte-identical across runs")
	}
}

// TestSLOStrictFires: an impossible threshold must fire, log an alert event,
// and turn into a nonzero exit under -slo-strict.
func TestSLOStrictFires(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the jobs experiment")
	}
	dir := t.TempDir()
	ev := filepath.Join(dir, "events.jsonl")
	code, _, errb := runCmd("-quick", "jobs", "-events", ev,
		"-slo", "tight=p99(cluster_queue_wait_seconds)<1e-12", "-slo-strict")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb)
	}
	if !strings.Contains(errb, "SLO tight violated") {
		t.Fatalf("stderr missing violation: %q", errb)
	}
	b, err := os.ReadFile(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"e":"alert"`) || !strings.Contains(string(b), `"name":"tight"`) {
		t.Fatalf("event log missing alert:\n%.400s", b)
	}
}

// TestSLOStrictDefaultsPass: the stock rule set holds on the healthy jobs
// experiment, so -slo-strict alone exits zero.
func TestSLOStrictDefaultsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the jobs experiment")
	}
	code, _, errb := runCmd("-quick", "jobs", "-slo-strict")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, errb)
	}
}

// TestTelemetryNeedsOneExperiment extends the single-experiment guard to the
// telemetry flags, and the error names every one of them.
func TestTelemetryNeedsOneExperiment(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-events", filepath.Join(dir, "e.jsonl"), "table1", "fig1"},
		{"-slo-strict", "all"},
		{"-report", filepath.Join(dir, "r.txt"), "jobs", "fig1"},
	} {
		code, _, errb := runCmd(args...)
		if code != 2 || !strings.Contains(errb, teleFlags+" need exactly one experiment") {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errb)
		}
	}
	var tele obscli.Flags
	fl := flag.NewFlagSet("telemetry", flag.ContinueOnError)
	tele.Register(fl)
	fl.VisitAll(func(f *flag.Flag) {
		if !slices.Contains(strings.Split(teleFlags, "/"), "-"+f.Name) {
			t.Errorf("the telemetry-flag errors do not name -%s", f.Name)
		}
	})
}

// TestTelemetryNeedsATracedExperiment: the sweeps (table1, fig9-fig13,
// faults) and report install no tracer, so a telemetry flag on one of them is
// an error after the run — not an empty trace or dump that exits 0 — and
// neither file is written. fig1, which traces its profiled read, is the
// control.
func TestTelemetryNeedsATracedExperiment(t *testing.T) {
	for _, tc := range []struct {
		exp    string
		flags  []string
		traced bool
	}{
		{"fig9", []string{"-trace", "t.json", "-events", "e.jsonl"}, false},
		{"table1", []string{"-metrics", "m.txt"}, false},
		{"fig1", []string{"-trace", "t.json", "-metrics", "m.txt"}, true},
	} {
		dir := t.TempDir()
		args := []string{"-quick"}
		var outputs []string
		for i := 0; i < len(tc.flags); i += 2 {
			path := filepath.Join(dir, tc.flags[i+1])
			args = append(args, tc.flags[i], path)
			if tc.flags[i] != "-events" { // the event log is opened before the run
				outputs = append(outputs, path)
			}
		}
		code, _, errb := runCmd(append(args, tc.exp)...)
		if tc.traced {
			if code != 0 {
				t.Errorf("%s: exit %d: %s", tc.exp, code, errb)
			}
			for _, path := range outputs {
				if fi, err := os.Stat(path); err != nil || fi.Size() < 100 {
					t.Errorf("%s: %s missing or near-empty (%v)", tc.exp, path, err)
				}
			}
			continue
		}
		if want := "ccexp: experiment " + tc.exp + " records no telemetry"; code != 1 || !strings.Contains(errb, want) {
			t.Errorf("%s: exit %d, stderr %q; want 1 and %q", tc.exp, code, errb, want)
		}
		for _, path := range outputs {
			if _, err := os.Stat(path); err == nil {
				t.Errorf("%s: wrote %s", tc.exp, path)
			}
		}
	}
}
