package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/obs/decision/decisiontest"
)

// TestExplainQuick runs the counterfactual experiment end to end on the
// quick config and checks its contract: the factual replay is byte-identical
// and recorded decisions (the experiment errors out otherwise), every -k
// policy has a row with its start delta, and the attribution note names a
// blocking job.
func TestExplainQuick(t *testing.T) {
	cfg := quick
	cfg.ExplainJob = -1
	cfg.ExplainPolicies = "fifo,easy-backfill,priority"
	tb, err := Explain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per -k policy)", len(tb.Rows))
	}
	for i, pol := range []string{"fifo (factual)", "easy-backfill", "priority"} {
		if tb.Rows[i][0] != pol {
			t.Fatalf("row %d is %q, want %s", i, tb.Rows[i][0], pol)
		}
		cell(t, tb, i, 5) // every policy's makespan is a number
	}
	if d := cell(t, tb, 0, 4); d != 0 {
		t.Fatalf("factual start delta %g, want 0", d)
	}
	// The auto-picked target is the longest-waiting job in a contended mix:
	// its wait must be attributable to a named blocker.
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "behind") {
		t.Fatalf("attribution note names no blocking job: %q", tb.Notes)
	}
	var waterfall string
	for _, n := range tb.Notes {
		if strings.HasPrefix(n, "waterfall:") {
			waterfall = n
		}
	}
	for _, phase := range []string{"queued", "read", "map", "reduce", "on ranks"} {
		if !strings.Contains(waterfall, phase) {
			t.Errorf("waterfall note missing %q: %q", phase, waterfall)
		}
	}
}

// TestExplainTargetSelection pins the -job flag semantics: an explicit seq
// is honored, an out-of-range seq errors.
func TestExplainTargetSelection(t *testing.T) {
	cfg := quick
	cfg.ExplainJob = 0
	cfg.ExplainPolicies = "fifo"
	tb, err := Explain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Title, "wide-0 (seq 0)") {
		t.Fatalf("explicit -job 0 not honored: %q", tb.Title)
	}
	cfg.ExplainJob = 1000
	if _, err := Explain(cfg); err == nil {
		t.Fatalf("out-of-range -job accepted")
	}
	cfg.ExplainJob = 0
	cfg.ExplainPolicies = "fifo,flux-capacitor"
	if _, err := Explain(cfg); err == nil {
		t.Fatalf("unknown -k policy accepted")
	}
}

// TestExplainRejectsRepeatedPolicy: a policy named twice in -k would be
// compared with itself (a second "fifo (factual)" row, and "fifo would have
// started it at the same time"), so it is an error that names the policy.
func TestExplainRejectsRepeatedPolicy(t *testing.T) {
	for spec, dup := range map[string]string{
		"fifo,easy-backfill,fifo": "fifo",
		"priority,fifo, fifo":     "fifo",
		"fifo,priority,priority":  "priority",
	} {
		if _, err := explainPolicies(spec); err == nil || !strings.Contains(err.Error(), `"`+dup+`"`) {
			t.Errorf("-k %s: error %v, want one naming %q", spec, err, dup)
		}
	}
	if pols, err := explainPolicies(""); err != nil || strings.Join(pols, ",") != "fifo,easy-backfill" {
		t.Errorf("default -k: %v, %v", pols, err)
	}
}

// decisionLines extracts the raw decision lines from a mixed event log,
// preserving their exact bytes — the same filter the nightly golden gate
// applies with grep.
func decisionLines(log []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(log, []byte("\n")) {
		if decision.IsLine(line) {
			out = append(out, line...)
			out = append(out, '\n')
		}
	}
	return out
}

// firstLineDiff fails the test at the first line where two logs part.
func firstLineDiff(t *testing.T, what string, got, want []byte) {
	t.Helper()
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s", what, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s length differs: got %d lines, want %d", what, len(gl), len(wl))
}

// TestJobsDecisionLogGolden pins the decision stream of the jobs experiment
// (quick config, fifo policy) byte for byte, twice over. Against the v2
// golden: admission reasons, blocker attribution, free-rank snapshots, which
// rounds write which skips, and serialization must all stay exactly
// reproducible (regenerate with UPDATE_SCHED_GOLDEN=1 only for an
// intentional decision-schema or scheduling-semantics change). And against
// the v1 golden, which the scheduler that wrote a skip per pending job per
// round recorded and which is never regenerated: the run's v2 stream must
// expand to it, so holding skips lost nothing a v1 log said.
func TestJobsDecisionLogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full jobs experiment; skipped under -short")
	}
	golden := filepath.Join("testdata", "jobs_fifo_decisions.golden.jsonl")
	goldenV1 := filepath.Join("testdata", "jobs_fifo_decisions_v1.golden.jsonl")
	ot := obs.New()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	ot.AddSink(sink)
	ot.EnableDecisions()
	cfg := quick
	cfg.Obs = ot
	if _, err := Jobs(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got := decisionLines(buf.Bytes())
	if len(got) == 0 {
		t.Fatal("jobs run emitted no decision lines")
	}
	// The extracted lines must round-trip through the parser to identical
	// bytes — the canonical-serialization invariant the golden relies on.
	recs, err := decision.ReadLog(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if rt := decision.AppendLog(nil, recs); !bytes.Equal(rt, got) {
		t.Fatal("decision lines do not round-trip to identical bytes")
	}
	// Before any regeneration: an update must not bless a stream that no
	// longer says what the v1 log said.
	wantV1, err := os.ReadFile(goldenV1)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := decisiontest.ExpandLog(got)
	if err != nil {
		t.Fatalf("v2 stream does not expand: %v", err)
	}
	if !bytes.Equal(expanded, wantV1) {
		firstLineDiff(t, "expansion vs the v1 golden", expanded, wantV1)
	}
	if os.Getenv("UPDATE_SCHED_GOLDEN") != "" {
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
		firstLineDiff(t, "decision log", got, want)
	}
}

// TestScale1DecisionGoldenExpandsToV1: the paper-scale decision golden the
// nightly cmp's a fresh run against (jobs_fifo_decisions_scale1) expands,
// file to file, to the v1 golden the old scheduler recorded at that scale.
// Together the two say the paper-scale v2 stream lost nothing, without a
// paper-scale run in tier 1.
func TestScale1DecisionGoldenExpandsToV1(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "jobs_fifo_decisions_scale1.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wantV1, err := os.ReadFile(filepath.Join("testdata", "jobs_fifo_decisions_scale1_v1.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := decisiontest.ExpandLog(v2)
	if err != nil {
		t.Fatalf("scale-1.0 golden does not expand: %v", err)
	}
	if !bytes.Equal(expanded, wantV1) {
		firstLineDiff(t, "scale-1.0 expansion vs the v1 golden", expanded, wantV1)
	}
	if len(v2) >= len(wantV1) {
		t.Fatalf("v2 golden (%d bytes) is not smaller than the v1 golden (%d)", len(v2), len(wantV1))
	}
}

// TestDecisionGoldenExpansionCatchesMutations is the mutation check of the
// expansion oracle, kept as a test: each single-record corruption of the
// committed v2 golden — a cause change dropped, two jobs first skipped in
// one round swapped, one submit time moved — must make the expansion differ
// from the v1 golden or fail outright.
func TestDecisionGoldenExpansionCatchesMutations(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "jobs_fifo_decisions.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wantV1, err := os.ReadFile(filepath.Join("testdata", "jobs_fifo_decisions_v1.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := decision.ReadLog(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	change, swap := -1, -1
	skipped := map[int]bool{}
	for i, r := range recs {
		if r.Outcome != decision.Skip {
			continue
		}
		first := !skipped[r.Seq]
		skipped[r.Seq] = true
		if !first && change < 0 {
			change = i
		}
		if first && i > 0 && recs[i-1].Outcome == decision.Skip && recs[i-1].Round == r.Round && swap < 0 {
			swap = i // the record before is a first skip too: nothing was skipped before this round
		}
	}
	if change < 0 || swap < 0 {
		t.Fatalf("golden has nothing to corrupt: change %d swap %d", change, swap)
	}
	for name, mutate := range map[string]func(m []decision.Record) []decision.Record{
		"none":                   func(m []decision.Record) []decision.Record { return m },
		"drop one change record": func(m []decision.Record) []decision.Record { return append(m[:change], m[change+1:]...) },
		"swap two first skips":   func(m []decision.Record) []decision.Record { m[swap-1], m[swap] = m[swap], m[swap-1]; return m },
		"perturb one submit":     func(m []decision.Record) []decision.Record { m[swap].Submit += 1e-9; return m },
	} {
		m := mutate(append([]decision.Record(nil), recs...))
		got, err := decisiontest.ExpandLog(decision.AppendLog(nil, m))
		if same := err == nil && bytes.Equal(got, wantV1); same != (name == "none") {
			t.Errorf("mutation %q: expansion equals the v1 golden = %v (err %v)", name, same, err)
		}
	}
}
