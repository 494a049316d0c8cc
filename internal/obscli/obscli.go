// Package obscli wires the telemetry plane (internal/obs) into a CLI: it
// registers the shared flag set (-trace, -metrics, -events, -series, -slo,
// -slo-strict, -explain, -report), attaches the requested sinks to a tracer
// before the run, and tears them down — writing the Perfetto trace and the
// metrics dump, flushing the event and series logs, reporting SLO
// violations, printing the per-job wait attribution, rendering the run
// report — after it. Both ccexp and ccrun use it, so the two commands expose
// identical telemetry surfaces. Every observation is a file written as the
// run goes or when it ends; nothing is served while it runs.
//
// Each output is a sink of its own: -events streams to disk, -trace
// attaches the Perfetto export, the one holder of the run's spans, and
// -report attaches report's fold, which folds the run as it is emitted:
// the report reads no log back, and is byte-identical to what `ccexp report
// -in` renders from the logs. -explain prints the wait attributions of that
// fold, or, without -report, of a decision.Fold of its own. So -events alone
// logs a run of any length in bounded memory, no output depends on which
// others are attached, and every flag composes.
package obscli

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/report"
)

// RuleList collects repeated -slo flags.
type RuleList []string

// String implements flag.Value.
func (l *RuleList) String() string { return fmt.Sprint([]string(*l)) }

// Set implements flag.Value.
func (l *RuleList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// Flags is the telemetry flag set shared by the CLIs.
type Flags struct {
	Trace   string
	Metrics string
	Events  string
	Series  string
	Rules   RuleList
	Strict  bool
	Explain bool
	Report  string
}

// Register installs the telemetry flags on fl.
func (f *Flags) Register(fl *flag.FlagSet) {
	fl.StringVar(&f.Trace, "trace", "",
		"write Chrome trace-event JSON (Perfetto) of the run here")
	fl.StringVar(&f.Metrics, "metrics", "",
		"write the metrics-registry dump here")
	fl.StringVar(&f.Events, "events", "",
		"write the structured JSONL event log here (byte-identical across identical runs)")
	fl.StringVar(&f.Series, "series", "",
		"write the round-aligned repro.series.v1 time-series log here (queue depth, ranks busy, per-OST utilization, per-class wait quantiles; byte-identical across identical runs)")
	fl.Var(&f.Rules, "slo",
		"SLO rule \"[name=]expr OP bound\" (repeatable; see internal/obs — with -slo-strict alone, the default rule set applies)")
	fl.BoolVar(&f.Strict, "slo-strict", false,
		"evaluate SLO rules during the run and exit nonzero if any fired")
	fl.BoolVar(&f.Explain, "explain", false,
		"record scheduler decision traces (repro.decisions.v2: admissions, drops, memo service, and a skip whenever a waiting job's cause changes; written into -events) and print the per-job wait attribution after the run")
	fl.StringVar(&f.Report, "report", "",
		"after the run, write the run report (fired SLO alerts, makespan attribution, per-tenant SLO table, slow-job blame, OST heat) into this file, folded as the run emits it; byte-identical to what \"ccexp report -in\" renders from the -events log (and -series, when set); needs -events")
}

// Any reports whether any telemetry flag was set — the signal to install an
// obs.Tracer.
func (f *Flags) Any() bool {
	return f.Trace != "" || f.Metrics != "" || f.Events != "" || f.Series != "" ||
		len(f.Rules) > 0 || f.Strict || f.Explain || f.Report != ""
}

// Validate rejects the one flag combination that cannot work: the -report
// file reports on the -events log (its header names it), so it needs one.
func (f *Flags) Validate() error {
	if f.Report != "" && f.Events == "" {
		return fmt.Errorf("-report needs -events (the report names the event log it reports on)")
	}
	return nil
}

// Plane is the attached telemetry plane of one run. Create with
// Flags.Attach, call Finish exactly once after the run.
type Plane struct {
	sink       *obs.JSONLSink
	chrome     *obs.ChromeTrace
	eventsFile *os.File
	series     *obs.SeriesSink
	seriesFile *os.File
	fold       *report.Data // -report's fold, fed as the run emits
	explain    *explainFold // -explain's fold when no -report fold carries one
	slo        *obs.SLO
	stderr     io.Writer
	ot         *obs.Tracer
	f          Flags // what was asked for
}

// Attach installs the requested telemetry components on ot. On error every
// file already opened is closed.
func (f *Flags) Attach(ot *obs.Tracer, stderr io.Writer) (*Plane, error) {
	p := &Plane{stderr: stderr, ot: ot, f: *f}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Trace != "" {
		p.chrome = obs.NewChromeTrace()
		ot.AddSink(p.chrome)
	}
	if f.Explain {
		ot.EnableDecisions()
	}
	fail := func(err error) (*Plane, error) {
		if p.eventsFile != nil {
			p.eventsFile.Close()
		}
		if p.seriesFile != nil {
			p.seriesFile.Close()
		}
		return nil, err
	}
	if f.Events != "" {
		file, err := os.Create(f.Events)
		if err != nil {
			return fail(err)
		}
		p.eventsFile = file
		p.sink = obs.NewJSONLSink(file)
		ot.AddSink(p.sink)
	}
	if f.Report != "" {
		// Series points reach the fold only when -series installs the series
		// sink: a report without -series has no series section.
		p.fold = report.New()
		p.fold.EventsPath = f.Events
		ot.AddSink(p.fold)
	} else if f.Explain {
		p.explain = &explainFold{}
		ot.AddSink(p.explain)
	}
	if f.Series != "" {
		file, err := os.Create(f.Series)
		if err != nil {
			return fail(err)
		}
		p.seriesFile = file
		p.series = obs.NewSeriesSink(file)
		ot.SetSeries(p.series)
	}
	if len(f.Rules) > 0 || f.Strict {
		rules := make([]obs.SLORule, 0, len(f.Rules))
		for _, s := range f.Rules {
			r, err := obs.ParseSLORule(s)
			if err != nil {
				return fail(err)
			}
			rules = append(rules, r)
		}
		p.slo = obs.NewSLO(rules...)
		ot.SetSLO(p.slo)
	}
	return p, nil
}

// Finish tears the plane down after the run: writes the -trace and -metrics
// files, flushes and closes the event and series logs, writes the -report
// file from its fold (nothing is read back), and prints SLO violations and
// the -explain attributions to stderr through one buffer, flushed before it
// returns. It returns the violations — the caller decides what -slo-strict
// means for its exit code — and the first write error.
func (p *Plane) Finish() ([]obs.SLOViolation, error) {
	if p == nil {
		return nil, nil
	}
	err := p.writeTraceAndMetrics()
	if p.sink != nil {
		serr := p.sink.Close()
		if cerr := p.eventsFile.Close(); serr == nil {
			serr = cerr
		}
		if serr != nil && err == nil {
			err = fmt.Errorf("events: %w", serr)
		}
	}
	if p.series != nil {
		serr := p.series.Close()
		if cerr := p.seriesFile.Close(); serr == nil {
			serr = cerr
		}
		if serr != nil && err == nil {
			err = fmt.Errorf("series: %w", serr)
		}
	}
	if p.fold != nil && err == nil {
		if rerr := p.writeReport(); rerr != nil {
			err = fmt.Errorf("report: %w", rerr)
		}
	}
	viol := p.slo.Violations()
	w := bufio.NewWriter(p.stderr)
	for _, v := range viol {
		fmt.Fprintf(w, "(%s)\n", v)
	}
	if p.f.Explain {
		var jobs []decision.JobAttribution
		if p.fold != nil {
			jobs = p.fold.Attributions()
		} else {
			jobs = p.explain.Jobs()
		}
		const tag = "(explain: "
		line := []byte(tag)
		for i := range jobs {
			line = append(jobs[i].Append(line[:len(tag)]), ")\n"...)
			w.Write(line)
		}
	}
	w.Flush()
	return viol, err
}

// explainFold folds the decision records for -explain when no report fold
// does; it reads no event.
type explainFold struct{ decision.Fold }

// Emit implements obs.EventSink.
func (*explainFold) Emit(obs.Event) {}

// EmitDecision implements decision.Sink.
func (f *explainFold) EmitDecision(rec decision.Record) { f.Add(&rec) }

// writeTraceAndMetrics writes the Perfetto export into the -trace file and
// the registry dump into the -metrics file.
func (p *Plane) writeTraceAndMetrics() error {
	if p.chrome != nil {
		f, err := os.Create(p.f.Trace)
		if err == nil {
			err = p.chrome.Export(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(p.stderr, "(trace: %d spans -> %s; open at ui.perfetto.dev)\n", p.ot.NumSpans(), p.f.Trace)
	}
	if p.f.Metrics != "" {
		if err := os.WriteFile(p.f.Metrics, []byte(p.ot.Metrics().Dump()), 0o644); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// writeReport renders the run report from the fold into the -report file.
func (p *Plane) writeReport() error {
	f, err := os.Create(p.f.Report)
	if err != nil {
		return err
	}
	err = report.Build(p.fold, 0).WriteText(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(p.stderr, "(report: written to %s)\n", p.f.Report)
	}
	return err
}
