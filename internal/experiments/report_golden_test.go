package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/report"
)

// jobsFIFOReport runs the jobs experiment (quick config, fifo) with events,
// decision records, and the round series all attached, then renders the run
// report — and renders it again from the same event log with the decision
// lines replaced by the v1 golden's (what the scheduler that wrote a skip per
// pending job per round recorded for this run). The report names its log by
// base name, so its bytes are independent of the temp dir.
func jobsFIFOReport(t *testing.T) (fresh, fromV1 []byte) {
	t.Helper()
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "events.jsonl")
	seriesPath := filepath.Join(dir, "series.jsonl")
	ef, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.Create(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	ot := obs.New()
	sink := obs.NewJSONLSink(ef)
	ser := obs.NewSeriesSink(sf)
	live := report.New()
	ot.AddSink(sink)
	ot.AddSink(live)
	ot.SetSeries(ser)
	ot.EnableDecisions()
	cfg := quick
	cfg.Obs = ot
	if _, err := Jobs(cfg); err != nil {
		t.Fatal(err)
	}
	for _, close := range []func() error{sink.Close, ser.Close, ef.Close, sf.Close} {
		if err := close(); err != nil {
			t.Fatal(err)
		}
	}
	// The fold fed live as a sink is the fold of the recorded log.
	loaded, err := report.Load(eventsPath, "")
	if err != nil {
		t.Fatal(err)
	}
	live.EventsPath = eventsPath
	if !reflect.DeepEqual(live, loaded) {
		t.Fatal("report's fold fed live differs from its fold of the recorded log")
	}
	render := func(eventsPath string) []byte {
		d, err := report.Load(eventsPath, seriesPath)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.Build(d, 5).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh = render(eventsPath)

	// The same run as a v1 log: this run's event lines, the recorded v1
	// decision lines. (The two streams are folded independently, so where
	// the decision lines sit among the events does not matter.)
	log, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	var v1log []byte
	for _, line := range bytes.SplitAfter(log, []byte("\n")) {
		if !decision.IsLine(line) {
			v1log = append(v1log, line...)
		}
	}
	v1decs, err := os.ReadFile(filepath.Join("testdata", "jobs_fifo_decisions_v1.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	v1Path := filepath.Join(t.TempDir(), "events.jsonl") // same base name: the report's header names it
	if err := os.WriteFile(v1Path, append(v1log, v1decs...), 0o644); err != nil {
		t.Fatal(err)
	}
	return fresh, render(v1Path)
}

// TestJobsReportGolden pins the run report, byte for byte, on the quick
// jobs experiment: the report is a pure function of the event/decision/
// series logs, which are themselves byte-deterministic, so any drift here
// means either the telemetry or the analyzer changed shape. Regenerate with
// UPDATE_SCHED_GOLDEN=1 go test ./internal/experiments -run ReportGolden
// only for an intentional schema or report-format change. The _v1 golden is
// the report the v1-era analyzer rendered from the v1-era log of this run; it
// is never regenerated: a v1 log must still load, and report exactly that.
// The two goldens differ in the decision count of their second line and in
// nothing else — every attribution sentence is the same.
func TestJobsReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full jobs experiment; skipped under -short")
	}
	golden := filepath.Join("testdata", "jobs_fifo_report.golden.txt")
	got, gotV1 := jobsFIFOReport(t)
	wantV1, err := os.ReadFile(filepath.Join("testdata", "jobs_fifo_report_v1.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotV1, wantV1) {
		firstLineDiff(t, "report of the v1 log", gotV1, wantV1)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(wantV1, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("report has %d lines, the v1 report %d", len(gl), len(wl))
	}
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) && i != 1 {
			t.Fatalf("report differs from the v1 report beyond the decision count, at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if os.Getenv("UPDATE_SCHED_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_SCHED_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		firstLineDiff(t, "report", got, want)
	}
}

// TestReportExperimentSelfDemo smoke-tests the ccexp report experiment's
// self-demo path: no input logs configured, so it records a quick workload
// run and reports on it.
func TestReportExperimentSelfDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("records a workload run; skipped under -short")
	}
	tb, err := ReportExp(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run report", "-- tenants --", "-- summary (json) --"} {
		if !bytes.Contains([]byte(tb.Chart), []byte(want)) {
			t.Fatalf("self-demo report missing %q", want)
		}
	}
}
