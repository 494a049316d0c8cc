package experiments

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/report"
	"repro/internal/workload"
)

// This file is the decision-trace counterfactual: one contended two-tenant
// mix of collective-computing analyses runs under the factual policy with
// scheduler decision tracing on, the recorded submission stream is replayed
// to prove the decision log and schedule are byte-reproducible, and then the
// same stream re-runs under K alternative policies. The table answers, for
// one job, "why did it wait, and what would policy X have done" — per-policy
// start/end/wait plus the start-time delta against the factual schedule,
// with the per-cause wait attribution and the span-derived phase waterfall
// as notes.

// The mix sizes the two tenants relative to the machine: wide batch
// analyses take 3/8 of the ranks (two fit, the third blocks), and narrow
// interactive queries take 1/8 (natural backfill for the hole the blocked
// wide job cannot use).
const (
	explainNWide   = 4
	explainNNarrow = 6
)

// explainJobs builds the submission list in global submission order: the
// wide jobs from the batch tenant, then the narrow ones from the interactive
// tenant. Widths derive from s.nranks; analyses reuse the jobs workload's
// windows (mod njobs, so every slab stays inside the dataset).
func explainJobs(s jobsSetup) []workload.Submission {
	var out []workload.Submission
	wideW, narrowW := s.nranks*3/8, s.nranks/8
	for i := 0; i < explainNWide; i++ {
		j := s.analysis("batch", i%s.njobs, wideW)
		j.Name = fmt.Sprintf("wide-%d", i)
		j.EstCost = 50
		out = append(out, j)
	}
	for i := 0; i < explainNNarrow; i++ {
		j := s.analysis("interactive", (explainNWide+i)%s.njobs, narrowW)
		j.Name = fmt.Sprintf("narrow-%d", i)
		j.Priority = 1
		j.EstCost = 5
		out = append(out, j)
	}
	return out
}

// runExplain executes the explain mix under one policy with decision tracing
// enabled, returning the per-job results (indexed by submission seq), the
// run's decision records, and the makespan. A nil tracer gets a fresh one —
// replay and counterfactual runs must not pollute the factual trace.
func runExplain(s jobsSetup, policy string, ot *obs.Tracer) ([]*cluster.CCResult, []decision.Record, float64, error) {
	if ot == nil {
		ot = obs.New()
	}
	ot.EnableDecisions()
	nbefore := len(ot.Decisions())
	s.policy = policy
	cl, crs, err := runTrace(s.trace(s.nranks, 0, explainJobs(s)), ot)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("policy %s: %w", policy, err)
	}
	recs := append([]decision.Record(nil), ot.Decisions()[nbefore:]...)
	return crs, recs, cl.Now(), nil
}

// explainPolicies resolves the -k flag: comma-separated, first entry is the
// factual policy, every entry a registered cluster policy named once.
func explainPolicies(spec string) ([]string, error) {
	if spec == "" {
		spec = "fifo,easy-backfill"
	}
	var pols []string
	for _, p := range strings.Split(spec, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("explain: empty policy in -k %q", spec)
		}
		if err := cluster.CheckPolicy(p); err != nil {
			return nil, fmt.Errorf("explain: -k: %w", err)
		}
		if slices.Contains(pols, p) {
			return nil, fmt.Errorf("explain: policy %q given twice in -k", p)
		}
		pols = append(pols, p)
	}
	return pols, nil
}

// explainWaterfall renders the target job's phase waterfall from its span
// sums: wall queue wait, then rank-seconds per runtime phase in pipeline
// order (pfs time is the portion of adio.read spent in the parallel file
// system; mpi.* collapses into one transport bucket).
func explainWaterfall(js report.JobSpans, cr *cluster.CCResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "queued %.4fs", cr.QueueWait())
	for s := report.Slot(0); s < report.NumSlots; s++ {
		if js.Seen[s] {
			fmt.Fprintf(&b, " -> %s %.4f rank-s", s, js.Sec[s])
		}
	}
	fmt.Fprintf(&b, " on ranks %s", decision.FormatRanks(append([]int(nil), cr.Ranks...)))
	return b.String()
}

// Explain is the counterfactual what-if experiment behind `ccexp explain
// -job N -k <policies>`: it records the factual schedule's decision trace,
// proves byte-identical replay, re-runs the submission stream under the
// alternative policies, and attributes one job's wait.
func Explain(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	s := newJobsSetup(cfg)
	pols, err := explainPolicies(cfg.ExplainPolicies)
	if err != nil {
		return nil, err
	}
	factual := pols[0]

	ot := cfg.Obs
	if ot == nil {
		ot = obs.New()
	}
	fold := report.New() // the waterfall note below reads the factual run's spans
	ot.AddSink(fold)
	factCrs, factRecs, factSpan, err := runExplain(s, factual, ot)
	if err != nil {
		return nil, err
	}

	// Replay: fork the recorded submission stream through a fresh machine
	// under the factual policy. The decision log must be byte-identical and
	// every job's start/end bit-identical — the counterfactual deltas below
	// are only meaningful if the factual schedule is exactly reproducible.
	repCrs, repRecs, _, err := runExplain(s, factual, nil)
	if err != nil {
		return nil, err
	}
	if len(factRecs) == 0 {
		return nil, fmt.Errorf("explain: the factual run recorded no decision")
	}
	if !bytes.Equal(decision.AppendLog(nil, factRecs), decision.AppendLog(nil, repRecs)) {
		return nil, fmt.Errorf("explain: replay decision log diverged from the recorded run")
	}
	for i := range factCrs {
		if math.Float64bits(factCrs[i].Start) != math.Float64bits(repCrs[i].Start) ||
			math.Float64bits(factCrs[i].End) != math.Float64bits(repCrs[i].End) {
			return nil, fmt.Errorf("explain: replay schedule diverged at %s (start %v vs %v, end %v vs %v)",
				factCrs[i].Job.Name, factCrs[i].Start, repCrs[i].Start,
				factCrs[i].End, repCrs[i].End)
		}
	}

	// Counterfactual runs: same submission stream, alternative policies.
	cfCrs := map[string][]*cluster.CCResult{factual: factCrs}
	cfSpan := map[string]float64{factual: factSpan}
	for _, pol := range pols[1:] {
		crs, _, span, err := runExplain(s, pol, nil)
		if err != nil {
			return nil, err
		}
		cfCrs[pol], cfSpan[pol] = crs, span
	}

	// Target job: -job N, or the longest-waiting job under the factual
	// policy (lowest seq on ties).
	tgt := cfg.ExplainJob
	if tgt >= len(factCrs) {
		return nil, fmt.Errorf("explain: -job %d out of range (have %d jobs, seq 0-%d)",
			tgt, len(factCrs), len(factCrs)-1)
	}
	if tgt < 0 {
		for i, cr := range factCrs {
			if tgt < 0 || cr.QueueWait() > factCrs[tgt].QueueWait() {
				tgt = i
			}
		}
	}
	tcr := factCrs[tgt]

	t := &Table{
		ID: "explain",
		Title: fmt.Sprintf("Counterfactual What-If for %s (seq %d) Across Scheduling Policies",
			tcr.Job.Name, tgt),
		Headers: []string{"policy", "start (s)", "end (s)", "wait (s)",
			"delta start (s)", "makespan (s)"},
	}
	for _, pol := range pols {
		cr := cfCrs[pol][tgt]
		delta := cr.Start - tcr.Start
		tag := ""
		if pol == factual {
			tag = " (factual)"
		}
		t.AddRow(pol+tag, secs(cr.Start), secs(cr.End), secs(cr.QueueWait()),
			fmt.Sprintf("%+.4f", delta), secs(cfSpan[pol]))
	}

	// Wait attribution of the target job from the recorded decision stream.
	attrs := decision.Attribute(factRecs)
	var tattr *decision.JobAttribution
	for i := range attrs {
		if attrs[i].Seq == tgt {
			tattr = &attrs[i]
		}
	}
	if tattr == nil {
		return nil, fmt.Errorf("explain: no terminal decision record for seq %d", tgt)
	}
	t.Notef("%s", *tattr)
	for _, pol := range pols[1:] {
		d := cfCrs[pol][tgt].Start - tcr.Start
		switch {
		case d < 0:
			t.Notef("%s would have started it %.4fs earlier", pol, -d)
		case d > 0:
			t.Notef("%s would have started it %.4fs later", pol, d)
		default:
			t.Notef("%s would have started it at the same time", pol)
		}
	}
	t.Notef("waterfall: %s", explainWaterfall(fold.Job(tcr.TracePID()), tcr))
	t.Notef("replay under %s reproduced the recorded schedule and all %d decision records byte-identically",
		factual, len(factRecs))
	t.Notef("%d jobs (%d wide w%d batch, %d narrow w%d interactive) on %d ranks under %s",
		explainNWide+explainNNarrow, explainNWide, s.nranks*3/8,
		explainNNarrow, s.nranks/8, s.nranks, factual)
	return t, nil
}
