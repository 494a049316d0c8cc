package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
)

// jobsFIFOReport runs the jobs experiment (quick config, fifo) with events,
// decision records, the round series and report's live fold all attached,
// checks that the live fold equals the fold of the recorded logs, then
// renders the run report from the logs. The report names its log by base
// name, so its bytes are independent of the temp dir.
func jobsFIFOReport(t *testing.T) []byte {
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
	// The fold fed live as a sink — events, decision records and series
	// points — is the fold of the recorded logs.
	loaded, err := report.Load(eventsPath, seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	if report.Build(loaded, 0).Summary.SeriesPoints == 0 {
		t.Fatal("the series log recorded no point")
	}
	live.EventsPath = eventsPath
	if !reflect.DeepEqual(live, loaded) {
		t.Fatal("report's fold fed live differs from its fold of the recorded logs")
	}
	var buf bytes.Buffer
	if err := report.Build(loaded, 5).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJobsReportGolden pins the run report, byte for byte, on the quick
// jobs experiment: the report is a pure function of the event/decision/
// series logs, which are themselves byte-deterministic, so any drift here
// means either the telemetry or the analyzer changed shape. Regenerate with
// UPDATE_SCHED_GOLDEN=1 go test ./internal/experiments -run ReportGolden
// only for an intentional schema or report-format change.
func TestJobsReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full jobs experiment; skipped under -short")
	}
	golden := filepath.Join("testdata", "jobs_fifo_report.golden.txt")
	got := jobsFIFOReport(t)
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
