package obscli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

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
		{"stream without events", Flags{Stream: true}, "-stream needs -events"},
		{"stream with events", Flags{Events: "ev.jsonl", Stream: true}, ""},
		{"series composes with stream", Flags{Events: "ev.jsonl", Stream: true, Series: "se.jsonl"}, ""},
		{"report composes with stream", Flags{Events: "ev.jsonl", Stream: true, Report: "rep.txt"}, ""},
		{"stream vs explain", Flags{Events: "ev.jsonl", Stream: true, Explain: true}, "-stream and -explain conflict"},
		{"stream vs serve", Flags{Events: "ev.jsonl", Stream: true, Serve: ":0"}, "-stream and -serve conflict"},
		{"trace and metrics", Flags{Trace: "t.json", Metrics: "m.txt"}, ""},
		{"stream vs trace", Flags{Events: "ev.jsonl", Stream: true, Trace: "t.json"}, "-stream and -trace conflict"},
		// The -trace conflict is reported first, as both CLIs always did.
		{"stream vs trace without events", Flags{Stream: true, Trace: "t.json"}, "-stream and -trace conflict"},
		{"metrics composes with stream", Flags{Events: "ev.jsonl", Stream: true, Metrics: "m.txt"}, ""},
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
		"-events", "ev.jsonl", "-series", "se.jsonl", "-report", "rep.txt", "-stream",
	}); err != nil {
		t.Fatal(err)
	}
	if f.Events != "ev.jsonl" || f.Series != "se.jsonl" || f.Report != "rep.txt" || !f.Stream {
		t.Fatalf("parsed flags: %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
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
