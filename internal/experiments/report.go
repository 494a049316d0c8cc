package experiments

import (
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// ReportExp is the offline run-report analyzer as an experiment: it reads a
// recorded repro.events.v1 log (Config.ReportIn, with any interleaved
// repro.decisions.v2 — or v1 — records) plus an optional repro.series.v1 log
// (Config.ReportSeriesIn) and renders the deterministic run report —
// makespan attribution, per-tenant SLO attainment, slowest-queued-job blame
// sentences, OST heat strips, and the machine-readable JSON summary. The
// report is a pure function of the log bytes, so reporting the same logs
// twice prints byte-identical output.
//
// With ReportIn empty it is self-demonstrating: it records a small
// multi-tenant workload run (events + decisions + series) into a temp dir
// and reports on that, so `ccexp all` and `ccexp report` work out of the
// box.
func ReportExp(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	in, seriesIn := cfg.ReportIn, cfg.ReportSeriesIn
	if in == "" {
		dir, err := os.MkdirTemp("", "ccexp-report")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		in = filepath.Join(dir, "events.jsonl")
		seriesIn = filepath.Join(dir, "series.jsonl")
		if err := recordDemoRun(in, seriesIn); err != nil {
			return nil, err
		}
	}
	d, err := report.Load(in, seriesIn)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := report.Build(d, cfg.ReportTopK).WriteText(&b); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "report",
		Title: "Offline run report (events + decisions + series)",
		Chart: b.String(),
	}
	if cfg.ReportIn == "" {
		t.Notef("self-demo: recorded a quick workload run to a temp dir and reported on it; point -in at a recorded -events log (and -series-in at its -series log) to analyze a real run")
	}
	return t, nil
}

// recordDemoRun records one small deterministic workload run — event log
// with decision records interleaved, plus the round series — for the
// self-demo path.
func recordDemoRun(eventsPath, seriesPath string) error {
	ef, err := os.Create(eventsPath)
	if err != nil {
		return err
	}
	sf, err := os.Create(seriesPath)
	if err != nil {
		ef.Close()
		return err
	}
	ot := obs.New()
	sink := obs.NewJSONLSink(ef)
	ser := obs.NewSeriesSink(sf)
	ot.AddSink(sink)
	ot.SetSeries(ser)
	ot.EnableDecisions()
	tr, err := workload.Generate(workload.DefaultSpec(7, 1, 120, 48, "fifo"))
	if err == nil {
		_, _, err = workload.Run(tr, ot)
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if cerr := ser.Close(); err == nil {
		err = cerr
	}
	if cerr := ef.Close(); err == nil {
		err = cerr
	}
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	return err
}
