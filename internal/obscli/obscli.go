// Package obscli wires the telemetry plane (internal/obs) into a CLI: it
// registers the shared flag set (-trace, -metrics, -events, -series, -serve,
// -dash, -slo, -slo-strict, -explain, -report), attaches the requested sinks
// to a tracer before the run, and tears them down — writing the Perfetto
// trace and the metrics dump, flushing the event and series logs, rendering
// the final dashboard frame, reporting SLO violations, printing the per-job
// wait attribution, generating the offline run report — after it. Both ccexp
// and ccrun use it, so the two commands expose identical telemetry surfaces.
//
// The tracer keeps nothing but decision records (when -explain or -serve
// reads them). Each output is a sink of its own: -events streams to disk,
// and -trace attaches the Perfetto export, the one holder of the run's spans.
// So -events alone logs a run of any length in bounded memory, no output
// depends on which others are attached, and every flag composes.
package obscli

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

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
	Serve   string
	Dash    bool
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
	fl.StringVar(&f.Serve, "serve", "",
		"serve live telemetry (/metrics, /healthz, /jobs) on this address, e.g. :9090; keeps serving after the run until interrupted")
	fl.BoolVar(&f.Dash, "dash", false,
		"render a live terminal dashboard to stderr while the run is in flight")
	fl.Var(&f.Rules, "slo",
		"SLO rule \"[name=]expr OP bound\" (repeatable; see internal/obs — with -slo-strict alone, the default rule set applies)")
	fl.BoolVar(&f.Strict, "slo-strict", false,
		"evaluate SLO rules during the run and exit nonzero if any fired")
	fl.BoolVar(&f.Explain, "explain", false,
		"record scheduler decision traces (repro.decisions.v2: admissions, drops, memo service, and a skip whenever a waiting job's cause changes; written into -events and served at /decisions) and print the per-job wait attribution after the run")
	fl.StringVar(&f.Report, "report", "",
		"after the run, render the offline run report (makespan attribution, per-tenant SLO table, slow-job blame, OST heat) from the -events log into this file; reads -series too when set")
}

// Any reports whether any telemetry flag was set — the signal to install an
// obs.Tracer.
func (f *Flags) Any() bool {
	return f.Trace != "" || f.Metrics != "" || f.Events != "" || f.Series != "" || f.Serve != "" || f.Dash ||
		len(f.Rules) > 0 || f.Strict || f.Explain || f.Report != ""
}

// Validate rejects the one flag combination that cannot work: -report is an
// offline pass over the -events log, so it needs one.
func (f *Flags) Validate() error {
	if f.Report != "" && f.Events == "" {
		return fmt.Errorf("-report needs -events (the report is rendered from the recorded event log)")
	}
	return nil
}

// dashInterval is the wall-clock dashboard refresh period. Refreshes are
// wall-clock (the virtual clock is owned by the run), which is fine: the
// dashboard only reads published frames, never influences the run.
const dashInterval = 250 * time.Millisecond

// Plane is the attached telemetry plane of one run. Create with
// Flags.Attach, call Finish exactly once after the run.
type Plane struct {
	sink       *obs.JSONLSink
	chrome     *obs.ChromeTrace
	eventsFile *os.File
	series     *obs.SeriesSink
	seriesFile *os.File
	live       *obs.Live
	slo        *obs.SLO
	ln         net.Listener
	dashStop   chan struct{}
	dashDone   chan struct{}
	stderr     io.Writer
	ot         *obs.Tracer
	f          Flags // what was asked for
}

// Attach installs the requested telemetry components on ot and starts the
// background consumers (HTTP server, dashboard ticker). On error everything
// already opened is torn down.
func (f *Flags) Attach(ot *obs.Tracer, stderr io.Writer) (*Plane, error) {
	p := &Plane{stderr: stderr, ot: ot, f: *f}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Trace != "" {
		p.chrome = obs.NewChromeTrace()
		ot.AddSink(p.chrome)
	}
	if f.Explain || f.Serve != "" {
		// -serve exposes /decisions, so the live endpoint implies recording.
		ot.EnableDecisions()
	}
	fail := func(err error) (*Plane, error) {
		if p.eventsFile != nil {
			p.eventsFile.Close()
		}
		if p.seriesFile != nil {
			p.seriesFile.Close()
		}
		if p.ln != nil {
			p.ln.Close()
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
	if f.Serve != "" || f.Dash {
		p.live = obs.NewLive()
		ot.SetLive(p.live)
	}
	if f.Serve != "" {
		ln, err := net.Listen("tcp", f.Serve)
		if err != nil {
			return fail(err)
		}
		p.ln = ln
		go http.Serve(ln, obs.TelemetryHandler(p.live))
		fmt.Fprintf(stderr, "(telemetry: serving /metrics /healthz /jobs on http://%s)\n", ln.Addr())
	}
	if f.Dash {
		p.dashStop = make(chan struct{})
		p.dashDone = make(chan struct{})
		go func() {
			defer close(p.dashDone)
			tick := time.NewTicker(dashInterval)
			defer tick.Stop()
			for {
				select {
				case <-p.dashStop:
					return
				case <-tick.C:
					// Clear + home so the dashboard redraws in place.
					fmt.Fprint(stderr, "\033[H\033[2J"+obs.RenderDashboard(p.live))
				}
			}
		}()
	}
	return p, nil
}

// Finish tears the plane down after the run: writes the -trace and -metrics
// files, stops the dashboard (rendering the final frame once more, plainly),
// flushes and closes the event log, and prints SLO violations to stderr. It
// returns the violations — the caller decides what -slo-strict means for its
// exit code — and the first write error.
func (p *Plane) Finish() ([]obs.SLOViolation, error) {
	if p == nil {
		return nil, nil
	}
	err := p.writeTraceAndMetrics()
	if p.dashStop != nil {
		close(p.dashStop)
		<-p.dashDone
		fmt.Fprint(p.stderr, obs.RenderDashboard(p.live))
	}
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
	if p.f.Report != "" && err == nil {
		if rerr := p.writeReport(); rerr != nil && err == nil {
			err = fmt.Errorf("report: %w", rerr)
		}
	}
	viol := p.slo.Violations()
	for _, v := range viol {
		fmt.Fprintf(p.stderr, "(%s)\n", v)
	}
	if p.f.Explain {
		for _, a := range decision.Attribute(p.ot.Decisions()) {
			fmt.Fprintf(p.stderr, "(explain: %s)\n", a)
		}
	}
	return viol, err
}

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

// writeReport renders the offline run report from the just-closed event
// (and series) logs into the -report file.
func (p *Plane) writeReport() error {
	f, err := os.Create(p.f.Report)
	if err != nil {
		return err
	}
	err = report.Run(f, p.f.Events, p.f.Series, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(p.stderr, "(report: written to %s)\n", p.f.Report)
	}
	return err
}

// ServeForever blocks when -serve was given, so the final frame stays
// scrapeable until the process is interrupted. A no-op otherwise.
func (p *Plane) ServeForever() {
	if p == nil || p.ln == nil {
		return
	}
	fmt.Fprintf(p.stderr, "(telemetry: run complete; still serving on http://%s — interrupt to exit)\n", p.ln.Addr())
	select {}
}
