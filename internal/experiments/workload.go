package experiments

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the workload-plane experiment: an arrival-rate sweep of the
// generative million-user stream (internal/workload) through the cluster
// scheduler, reporting makespan, per-SLO-class queue-wait quantiles, memo
// hit rate, and deadline drops per rate. With -trace-out/-trace-in it
// records or replays a versioned repro.workload.v1 stream instead of
// sweeping. Every mode runs its base stream twice and fails if the two runs
// are not bit-identical — the internal replay gate that backs the nightly
// record→replay cmp.

// workloadOpts are the parsed -workload overrides.
type workloadOpts struct {
	jobs    int
	rateMul float64
	sweep   []float64
	horizon float64
	seed    uint64
	policy  string
}

// parseWorkloadSpec parses the "key=value,key=value" mini-language of
// Config.WorkloadSpec.
func parseWorkloadSpec(spec string) (workloadOpts, error) {
	o := workloadOpts{rateMul: 1, sweep: []float64{0.5, 1, 2}, seed: 42, policy: "priority"}
	if spec == "" {
		return o, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return o, fmt.Errorf("workload: bad spec entry %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "jobs":
			o.jobs, err = strconv.Atoi(v)
		case "rate":
			o.rateMul, err = strconv.ParseFloat(v, 64)
		case "rates":
			o.sweep = nil
			for _, m := range strings.Split(v, ";") {
				f, ferr := strconv.ParseFloat(m, 64)
				if ferr != nil || !positive(f) {
					return o, fmt.Errorf("workload: bad rates entry %q (want a finite multiplier > 0)", m)
				}
				o.sweep = append(o.sweep, f)
			}
		case "horizon":
			o.horizon, err = strconv.ParseFloat(v, 64)
		case "seed":
			o.seed, err = strconv.ParseUint(v, 10, 64)
		case "policy":
			o.policy, err = v, cluster.CheckPolicy(v)
		default:
			return o, fmt.Errorf("workload: unknown spec key %q", k)
		}
		if err != nil {
			return o, fmt.Errorf("workload: bad spec entry %q: %v", kv, err)
		}
	}
	// A NaN passes every ordered test, and a NaN or infinite rate or horizon
	// would never end the generator's arrival loop.
	if !positive(o.rateMul) || len(o.sweep) == 0 {
		return o, fmt.Errorf("workload: rate and rates must be finite and positive")
	}
	if math.IsNaN(o.horizon) || math.IsInf(o.horizon, 0) {
		return o, fmt.Errorf("workload: horizon must be finite, got %v", o.horizon)
	}
	return o, nil
}

// positive reports whether v is finite and > 0.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// workloadDigest reduces one run to a canonical per-job transcript —
// outcome, timing, and analysis value for every submission — the structural
// equality the replay gate compares.
func workloadDigest(subs []workload.Submitted) []string {
	out := make([]string, len(subs))
	for i, s := range subs {
		jr := s.Res.JobResult
		val := "-"
		if s.Res.Valid() {
			val = strconv.FormatFloat(s.Res.Res.Value, 'g', -1, 64)
		}
		out[i] = fmt.Sprintf("%s t=%g start=%g end=%g err=%v memo=%t coal=%t val=%s",
			jr.Job.Name, jr.Submit, jr.Start, jr.End, jr.Err != nil,
			jr.MemoHit, jr.CoalescedWith != nil, val)
	}
	return out
}

// workloadOutcome is one rate's measured aggregate.
type workloadOutcome struct {
	jobs     int
	makespan float64
	memoHits int
	drops    int
	classes  []workload.ClassStats
}

// runWorkloadTrace replays tr on a fresh machine and rolls the results up.
func runWorkloadTrace(tr *workload.Trace, ot *obs.Tracer) (workloadOutcome, []string, error) {
	c, subs, err := workload.Run(tr, ot)
	if err != nil {
		return workloadOutcome{}, nil, err
	}
	results := make([]*cluster.JobResult, len(subs))
	for i, s := range subs {
		results[i] = s.Res.JobResult
	}
	if err := cluster.AuditResults(results, tr.Machine.Ranks); err != nil {
		return workloadOutcome{}, nil, err
	}
	o := workloadOutcome{jobs: len(subs), makespan: c.Now(), classes: workload.Summarize(subs)}
	for _, cs := range o.classes {
		o.memoHits += cs.MemoHits
		o.drops += cs.Dropped
	}
	return o, workloadDigest(subs), nil
}

// Workload runs the generative workload-plane experiment (see the file
// comment). The returned table is a pure function of the stream, so a
// record invocation and a replay invocation of the same trace print
// byte-identical tables.
func Workload(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	opts, err := parseWorkloadSpec(cfg.WorkloadSpec)
	if err != nil {
		return nil, err
	}
	if cfg.WorkloadTraceOut != "" && cfg.WorkloadTraceIn != "" {
		return nil, fmt.Errorf("workload: -trace-out and -trace-in are mutually exclusive")
	}
	if opts.horizon == 0 {
		opts.horizon = 120 * cfg.Scale
		if cfg.Quick {
			opts.horizon = 6
		}
	}
	// The default spec's aggregate rate is ~20 jobs/s at multiplier 1; when
	// a job count is requested, widen the horizon so the cohorts generate
	// enough arrivals before truncation.
	if opts.jobs > 0 {
		if need := float64(opts.jobs) / (20 * opts.rateMul) * 1.3; opts.horizon < need {
			opts.horizon = need
		}
	}
	makeSpec := func(rateMul float64) workload.Spec {
		s := workload.DefaultSpec(opts.seed, rateMul, opts.horizon, opts.jobs, opts.policy)
		if cfg.Quick {
			s.Machine.Ranks = 8
			s.Machine.RanksPerNode = 4
		}
		return s
	}

	// The streams under measurement: either the single loaded/recorded
	// base-rate stream, or the sweep.
	type rateRun struct {
		label string
		trace *workload.Trace
	}
	var runs []rateRun
	var baseIdx int
	if cfg.WorkloadTraceIn != "" {
		f, err := os.Open(cfg.WorkloadTraceIn)
		if err != nil {
			return nil, err
		}
		tr, err := workload.Read(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		// "base", not the numeric rate: a replay invocation must print the
		// byte-identical table the recording invocation printed, and the
		// numeric rate lives in the trace's generation spec, not its jobs.
		runs = []rateRun{{label: "base", trace: tr}}
	} else {
		sweep := opts.sweep
		if cfg.WorkloadTraceOut != "" {
			sweep = []float64{opts.rateMul}
		}
		base := 0
		for i, m := range sweep {
			mul := m * opts.rateMul
			tr, err := workload.Generate(makeSpec(mul))
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%.3g", 20*mul)
			if cfg.WorkloadTraceOut != "" {
				label = "base" // match the replay invocation's table exactly
			}
			runs = append(runs, rateRun{label: label, trace: tr})
			if m == 1 || len(sweep) == 1 {
				base = i
			}
		}
		baseIdx = base
		if cfg.WorkloadTraceOut != "" {
			f, err := os.Create(cfg.WorkloadTraceOut)
			if err != nil {
				return nil, err
			}
			if err := workload.Write(f, runs[baseIdx].trace); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
	}
	if cfg.WorkloadTraceIn != "" {
		baseIdx = 0
	}

	t := &Table{
		ID:    "workload",
		Title: "Generative multi-tenant workload plane (arrival-rate sweep)",
		Headers: []string{"rate (jobs/s)", "class", "jobs", "drops", "late",
			"memo hits", "p50 wait (s)", "p99 wait (s)"},
	}
	for i, rr := range runs {
		var ot *obs.Tracer
		if i == baseIdx {
			ot = cfg.Obs // the externally traced run is the base stream
		}
		o, digest, err := runWorkloadTrace(rr.trace, ot)
		if err != nil {
			return nil, fmt.Errorf("workload rate %s: %w", rr.label, err)
		}
		if i == baseIdx {
			// Replay gate: the same stream on a fresh machine must
			// reproduce every job outcome exactly.
			o2, digest2, err := runWorkloadTrace(rr.trace, nil)
			if err != nil {
				return nil, fmt.Errorf("workload replay gate: %w", err)
			}
			if len(digest) != len(digest2) || o.makespan != o2.makespan {
				return nil, fmt.Errorf("workload replay gate: runs diverged (%d/%d jobs, makespan %v/%v)",
					len(digest), len(digest2), o.makespan, o2.makespan)
			}
			for j := range digest {
				if digest[j] != digest2[j] {
					return nil, fmt.Errorf("workload replay gate: job %d diverged:\n  run1: %s\n  run2: %s",
						j, digest[j], digest2[j])
				}
			}
		}
		for _, cs := range o.classes {
			t.AddRow(rr.label, cs.Class, fmt.Sprintf("%d", cs.Jobs),
				fmt.Sprintf("%d", cs.Dropped), fmt.Sprintf("%d", cs.Missed),
				fmt.Sprintf("%d", cs.MemoHits), secs(cs.WaitP50), secs(cs.WaitP99))
		}
		t.Notef("rate %s: %d jobs, makespan %.3fs, memo hit rate %.1f%%, %d deadline drops",
			rr.label, o.jobs, o.makespan, 100*float64(o.memoHits)/float64(max(o.jobs, 1)),
			o.drops)
	}
	t.Notef("replay gate: base stream ran twice bit-identically (%d jobs)", len(runs[baseIdx].trace.Jobs))
	return t, nil
}
