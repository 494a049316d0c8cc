package experiments

import (
	"io"
	"strings"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// ReportExp is the offline run-report analyzer as an experiment: it reads a
// recorded repro.events.v1 log (Config.ReportIn, with any interleaved
// repro.decisions.v2 records) plus an optional repro.series.v1 log
// (Config.ReportSeriesIn) and renders the deterministic run report —
// makespan attribution, per-tenant SLO attainment, slowest-queued-job blame
// sentences, OST heat strips, and the machine-readable JSON summary. The
// report is a pure function of the log bytes, so reporting the same logs
// twice prints byte-identical output.
//
// With ReportIn empty it is self-demonstrating: it runs a small
// multi-tenant workload with report's fold attached to the tracer (events,
// decisions and series, folded as they are emitted) and reports on that, so
// `ccexp all` and `ccexp report` work out of the box.
func ReportExp(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	var d *report.Data
	var err error
	if cfg.ReportIn != "" {
		d, err = report.Load(cfg.ReportIn, cfg.ReportSeriesIn)
	} else {
		// The report's header names its source log: the demo's is
		// events.jsonl. The tracer samples only with a series sink
		// installed; the fold keeps the points, so the sink's log is
		// discarded.
		d = report.New()
		d.EventsPath = "events.jsonl"
		ot := obs.New()
		ot.AddSink(d)
		ser := obs.NewSeriesSink(io.Discard)
		ot.SetSeries(ser)
		ot.EnableDecisions()
		var tr *workload.Trace
		if tr, err = workload.Generate(workload.DefaultSpec(7, 1, 120, 48, "fifo")); err == nil {
			_, _, err = workload.Run(tr, ot)
		}
		if cerr := ser.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := report.Build(d, 0).WriteText(&b); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "report",
		Title: "Offline run report (events + decisions + series)",
		Chart: b.String(),
	}
	if cfg.ReportIn == "" {
		t.Notef("self-demo: reported on a quick workload run, folded as it ran (nothing is written); point -in at a recorded -events log (and -series-in at its -series log) to analyze a real run")
	}
	return t, nil
}
