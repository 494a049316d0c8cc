// Command ccexp regenerates the paper's tables and figures on the simulated
// cluster.
//
// Usage:
//
//	ccexp [-scale 0.1] [-quick] [-memo] [-policy easy-backfill] [all|table1|fig1|fig2|fig3|fig9|fig10|fig11|fig12|fig13|faults|jobs|sched-policies|multiuser|profile-jobs|explain ...]
//	ccexp jobs -trace trace.json -metrics metrics.txt
//
// With no experiment arguments it lists the available experiments. -scale
// multiplies the real data volume streamed through the simulator (1.0 =
// paper scale); protocol parameters (process counts, aggregators, buffer
// sizes) always match the paper. Tables go to stdout and are byte-identical
// across runs (the simulation is deterministic); wall-clock timing goes to
// stderr.
//
// -trace writes a Chrome trace-event JSON file (load it at ui.perfetto.dev)
// of the experiment's instrumented cluster run, and -metrics writes the
// matching metrics-registry dump. Both require exactly one experiment so the
// trace unambiguously describes one run; both files are byte-identical
// across runs, like the tables. Experiments are named by positional
// arguments only.
//
// The rest of the telemetry plane (see internal/obs and internal/obscli)
// attaches with -events (streaming JSONL event log, byte-identical across
// identical runs), -series (the round-aligned time series), -report (the run
// report, folded as the run emits) and -slo/-slo-strict (declarative SLO
// rules evaluated at scheduler round boundaries, each firing rule an alert
// line in the event log; strict mode exits nonzero if any rule fired). Like
// -trace, these require exactly one experiment:
//
//	ccexp jobs -events events.jsonl -report report.txt -slo-strict
//
// The tracer keeps no span: each output is a sink fed as the run emits.
// The -events log is written to disk as events happen; the -trace export
// holds the spans it will write; -report, explain and profile-jobs attach
// report's fold to the run. So very large runs (the workload experiment
// at scale) log in bounded memory, and every telemetry flag composes with
// every other.
//
// The workload experiment generates a multi-tenant job stream
// (internal/workload) and sweeps its arrival rate; -workload overrides the
// generation ("jobs=50000,rate=2,seed=7,..."), -trace-out records the
// generated stream as a versioned repro.workload.v1 file, and -trace-in
// replays such a file byte-identically instead of generating:
//
//	ccexp workload -workload jobs=50000 -trace-out stream.wl.jsonl
//	ccexp workload -trace-in stream.wl.jsonl
//
// -explain records the scheduler's decision trace (repro.decisions.v2 lines
// interleaved into -events: every admission, drop and memo service, and a
// skip whenever a waiting job's cause changes) and prints the per-job wait
// attribution after the run. The explain experiment goes further: it
// replays the recorded submission stream under alternative policies and
// reports counterfactual start-time deltas for one job. Flags may follow the
// experiment name, so the natural spelling works:
//
//	ccexp explain -job 3 -k fifo,easy-backfill
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// teleFlags names every telemetry flag, for the errors that reject them.
const teleFlags = "-trace/-metrics/-events/-series/-slo/-slo-strict/-explain/-report"

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("ccexp", flag.ContinueOnError)
	fl.SetOutput(stderr)
	scale := fl.Float64("scale", 0.1, "data-volume scale relative to the paper (1.0 = full)")
	quick := fl.Bool("quick", false, "shrink process counts too (smoke test)")
	memo := fl.Bool("memo", false, "enable the cluster result cache + read coalescer on experiment machines (multiuser measures both settings itself)")
	policy := fl.String("policy", "", "cluster scheduling policy for the queued-workload experiments: "+strings.Join(cluster.PolicyNames(), "|")+" (\"\" = fifo; sched-policies sweeps all)")
	explainJob := fl.Int("job", -1, "explain experiment: submission index of the job to attribute (-1 = the longest-waiting job)")
	explainK := fl.String("k", "", "explain experiment: comma-separated policy set to replay under; first entry is the factual policy (\"\" = fifo,easy-backfill)")
	wlSpec := fl.String("workload", "", "workload experiment: generation overrides as \"jobs=50000,rate=2,rates=0.5;1;2,horizon=600,seed=7,policy=priority\"")
	wlOut := fl.String("trace-out", "", "workload experiment: record the generated stream as a repro.workload.v1 trace here (single base-rate run)")
	wlIn := fl.String("trace-in", "", "workload experiment: replay this repro.workload.v1 trace instead of generating (single run)")
	repIn := fl.String("in", "", "report experiment: analyze this recorded repro.events.v1 log (\"\" = report on a self-demo run, folded as it runs)")
	repSeries := fl.String("series-in", "", "report experiment: also read this repro.series.v1 time-series log")
	var tele obscli.Flags
	tele.Register(fl)
	fl.Lookup("trace").Usage = "write Chrome trace-event JSON (Perfetto) here; needs exactly one experiment"
	fl.Lookup("metrics").Usage = "write the metrics-registry dump here; needs exactly one experiment"
	var pf prof.Flags
	pf.Register(fl)
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: ccexp [flags] all|<experiment> ...\n\nflags:\n")
		fl.PrintDefaults()
		fmt.Fprintf(stderr, "\nexperiments:\n")
		for _, r := range experiments.All() {
			fmt.Fprintf(stderr, "  %-8s %s\n", r.ID, r.Name)
		}
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	// flag stops at the first positional argument, but `ccexp explain -job 3`
	// reads naturally — so alternate between collecting positionals and
	// re-parsing flag runs until the argument list is exhausted.
	var rest []string
	for tail := fl.Args(); len(tail) > 0; tail = fl.Args() {
		if len(tail[0]) > 1 && strings.HasPrefix(tail[0], "-") {
			if err := fl.Parse(tail); err != nil {
				return 2
			}
			continue
		}
		rest = append(rest, tail[0])
		if err := fl.Parse(tail[1:]); err != nil {
			return 2
		}
	}
	if len(rest) == 0 {
		fl.Usage()
		return 2
	}
	if err := cluster.CheckPolicy(*policy); err != nil {
		fmt.Fprintf(stderr, "ccexp: -policy: %v\n", err)
		return 2
	}
	cfg := experiments.Config{Scale: *scale, Quick: *quick, Memo: *memo, Policy: *policy,
		ExplainJob: *explainJob, ExplainPolicies: *explainK,
		WorkloadSpec: *wlSpec, WorkloadTraceOut: *wlOut, WorkloadTraceIn: *wlIn,
		ReportIn: *repIn, ReportSeriesIn: *repSeries}

	var runners []experiments.Runner
	for _, a := range rest {
		if a == "all" {
			runners = experiments.All()
			break
		}
		r, ok := experiments.ByID(a)
		if !ok {
			fmt.Fprintf(stderr, "ccexp: unknown experiment %q\n", a)
			return 2
		}
		runners = append(runners, r)
	}
	if tele.Any() && len(runners) != 1 {
		fmt.Fprintf(stderr, "ccexp: %s need exactly one experiment (got %d)\n", teleFlags, len(runners))
		return 2
	}
	if tele.Any() {
		cfg.Obs = obs.New()
	}
	plane, err := tele.Attach(cfg.Obs, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "ccexp: %v\n", err)
		return 1
	}
	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(stderr, "ccexp: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "ccexp: %v\n", err)
		}
	}()
	for _, r := range runners {
		start := time.Now()
		tb, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "ccexp: %s: %v\n", r.ID, err)
			return 1
		}
		tb.Fprint(stdout)
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "(%s regenerated in %.1fs wall)\n", r.ID, time.Since(start).Seconds())
		if r.ID == "workload" && *wlOut != "" {
			fmt.Fprintf(stderr, "(workload trace recorded to %s)\n", *wlOut)
		}
	}
	// Telemetry needs an experiment that traces its run: the sweeps (table1,
	// fig9-fig13, faults) and report never install the tracer, and an empty
	// trace or dump must not pass for a recorded one.
	if cfg.Obs != nil && cfg.Obs.NumSpans() == 0 {
		fmt.Fprintf(stderr, "ccexp: experiment %s records no telemetry; run it without %s\n", runners[0].ID, teleFlags)
		return 1
	}
	viol, err := plane.Finish()
	if err != nil {
		fmt.Fprintf(stderr, "ccexp: %v\n", err)
		return 1
	}
	if tele.Strict && len(viol) > 0 {
		fmt.Fprintf(stderr, "ccexp: %d SLO violation(s) under -slo-strict\n", len(viol))
		return 1
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(stderr, "ccexp: %v\n", err)
		return 1
	}
	return 0
}
