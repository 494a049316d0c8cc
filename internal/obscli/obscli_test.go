package obscli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/decision"
)

// TestValidate: -report needs -events, and that is the only rule. "stream" in
// a case name is the -events log, which always streams to disk and keeps
// nothing in memory; it used to be a mode (-stream) that conflicted with
// every reader of kept state, and each former conflict is pinned here as a
// combination that now validates.
func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		f       Flags
		wantErr string // "" = valid
	}{
		{"zero", Flags{}, ""},
		{"events only", Flags{Events: "ev.jsonl"}, ""},
		{"series only", Flags{Series: "se.jsonl"}, ""},
		{"report with events", Flags{Events: "ev.jsonl", Report: "rep.txt"}, ""},
		{"report without events", Flags{Report: "rep.txt"}, "-report needs -events"},
		{"series composes with stream", Flags{Events: "ev.jsonl", Series: "se.jsonl"}, ""},
		{"report composes with stream", Flags{Events: "ev.jsonl", Report: "rep.txt", Series: "se.jsonl"}, ""},
		{"metrics composes with stream", Flags{Events: "ev.jsonl", Metrics: "m.txt"}, ""},
		{"stream vs explain", Flags{Events: "ev.jsonl", Explain: true}, ""},
		{"stream vs serve", Flags{Events: "ev.jsonl", Serve: ":0"}, ""},
		{"stream vs trace", Flags{Events: "ev.jsonl", Trace: "t.json"}, ""},
		{"trace and metrics", Flags{Trace: "t.json", Metrics: "m.txt"}, ""},
		{"everything at once", Flags{Events: "ev.jsonl", Series: "se.jsonl", Report: "rep.txt", Trace: "t.json",
			Metrics: "m.txt", Explain: true, Serve: ":0", Dash: true, Strict: true}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestAnyIncludesSeriesAndReport(t *testing.T) {
	if (&Flags{}).Any() {
		t.Fatal("zero Flags should not be Any")
	}
	if !(&Flags{Series: "se.jsonl"}).Any() {
		t.Fatal("-series alone must install a tracer")
	}
	if !(&Flags{Events: "ev.jsonl", Report: "rep.txt"}).Any() {
		t.Fatal("-report must install a tracer")
	}
	if !(&Flags{Trace: "t.json"}).Any() || !(&Flags{Metrics: "m.txt"}).Any() {
		t.Fatal("-trace or -metrics alone must install a tracer")
	}
}

func TestRegisterRoundTrip(t *testing.T) {
	var f Flags
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	fl.SetOutput(io.Discard)
	f.Register(fl)
	if err := fl.Parse([]string{
		"-events", "ev.jsonl", "-series", "se.jsonl", "-report", "rep.txt", "-explain",
	}); err != nil {
		t.Fatal(err)
	}
	if f.Events != "ev.jsonl" || f.Series != "se.jsonl" || f.Report != "rep.txt" || !f.Explain {
		t.Fatalf("parsed flags: %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	if err := fl.Parse([]string{"-stream"}); err == nil {
		t.Fatal("-stream parsed: the flag is deleted, what is kept follows from what reads it")
	}
}

// drive records what a small run would: per job an open/close span with a
// late attribute, a complete span, an instant, a counter sample and — when
// decision tracing is on — the job's admission.
func drive(ot *obs.Tracer, jobs int) {
	for i := 0; i < jobs; i++ {
		ts := float64(i)
		id := ot.Begin(0, i, "run", "sched", ts, obs.S("job", "j"), obs.I("i", int64(i)))
		ot.Span(i+1, 0, "cc.map", "cc", ts, ts+0.5)
		ot.Instant(0, i, "memo-hit", "sched", ts+0.25)
		ot.Counter("cluster_queue_depth", ts, float64(jobs-i))
		ot.AddAttr(id, obs.S("late", "attr"))
		ot.End(id, ts+1)
		ot.Decision(decision.Record{Round: i + 1, T: ts, Policy: "fifo", Job: "j", Seq: i,
			Outcome: decision.Admit, BlockedBySeq: -1})
	}
}

// TestRetentionFollowsTheReader: the tracer keeps nothing but the decision
// records -explain reads; each output is its own sink, so no file's bytes
// depend on which other outputs were asked for.
func TestRetentionFollowsTheReader(t *testing.T) {
	const jobs = 5
	run := func(f Flags) (*obs.Tracer, string) {
		t.Helper()
		ot := obs.New()
		var stderr strings.Builder
		p, err := f.Attach(ot, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		drive(ot, jobs)
		if _, err := p.Finish(); err != nil {
			t.Fatal(err)
		}
		return ot, stderr.String()
	}
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil || len(b) == 0 {
			t.Fatalf("%s: %v (%d bytes)", path, err, len(b))
		}
		return b
	}
	dir := t.TempDir()

	// -events alone: every span goes to the log and is counted.
	evOnly := filepath.Join(dir, "events-only.jsonl")
	ot, _ := run(Flags{Events: evOnly})
	if ot.NumSpans() != 3*jobs {
		t.Errorf("-events alone: %d spans recorded, want %d", ot.NumSpans(), 3*jobs)
	}
	if len(ot.Decisions()) != 0 {
		t.Errorf("-events alone recorded %d decisions: decision tracing was not asked for", len(ot.Decisions()))
	}

	// -trace with and without -events: the same export, and the same log as
	// -events alone.
	evTrace, trace := filepath.Join(dir, "events-trace.jsonl"), filepath.Join(dir, "trace.json")
	run(Flags{Events: evTrace, Trace: trace})
	traceOnly := filepath.Join(dir, "trace-only.json")
	run(Flags{Trace: traceOnly})
	if !bytes.Equal(read(trace), read(traceOnly)) {
		t.Error("the -trace export depends on whether -events is attached")
	}
	if !bytes.Equal(read(evOnly), read(evTrace)) {
		t.Error("the event log's bytes depend on whether -trace is attached")
	}

	// -explain: decisions kept and attributed.
	evExplain := filepath.Join(dir, "events-explain.jsonl")
	ot, stderr := run(Flags{Events: evExplain, Explain: true})
	if len(ot.Decisions()) != jobs {
		t.Errorf("-explain: %d decision records kept, want %d", len(ot.Decisions()), jobs)
	}
	if n := strings.Count(stderr, "(explain: "); n != jobs {
		t.Errorf("-explain: %d attribution lines, want one per job (%d):\n%s", n, jobs, stderr)
	}
	if n := bytes.Count(read(evExplain), []byte(`"e":"decision"`)); n != jobs {
		t.Errorf("-explain: %d decision lines in the event log, want %d", n, jobs)
	}
}

// TestAttachFinishWritesSeriesAndReport drives the full plane lifecycle
// without a cluster: attach with -trace/-metrics/-events/-series/-report,
// emit one span, one counter and one series point through the tracer, finish,
// and check the files and the trace line on stderr.
func TestAttachFinishWritesSeriesAndReport(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		Events: filepath.Join(dir, "ev.jsonl"),
		Series: filepath.Join(dir, "se.jsonl"),
		Report: filepath.Join(dir, "rep.txt"),

		Trace:   filepath.Join(dir, "trace.json"),
		Metrics: filepath.Join(dir, "metrics.txt"),
	}
	ot := obs.New()
	var stderr strings.Builder
	p, err := f.Attach(ot, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if ot.Series() == nil {
		t.Fatal("series sink not installed on tracer")
	}
	ot.Span(0, 0, "queued", "sched", 0, 1.5, obs.S("job", "j0"), obs.S("tenant", "t0"))
	ot.Series().Sample(obs.SeriesPoint{Round: 1, T: 1.5, QueueDepth: 1, RanksBusy: 2, RanksTotal: 4})
	ot.Metrics().Counter("cluster_jobs_submitted").Inc()
	if _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	if want := "(trace: 1 spans -> " + f.Trace + "; open at ui.perfetto.dev)\n"; !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q lacks the trace line %q", stderr.String(), want)
	}
	if tr, err := os.ReadFile(f.Trace); err != nil || !strings.Contains(string(tr), `"queued"`) {
		t.Fatalf("trace file: %v\n%s", err, tr)
	}
	if m, err := os.ReadFile(f.Metrics); err != nil || string(m) != ot.Metrics().Dump() || !strings.Contains(string(m), "counter cluster_jobs_submitted 1") {
		t.Fatalf("metrics file: %v\n%s", err, m)
	}
	rep, err := os.ReadFile(f.Report)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run report", "series points: 1", "t0"} {
		if !strings.Contains(string(rep), want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}
