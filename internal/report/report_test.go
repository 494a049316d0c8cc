package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/decision"
)

// writeSyntheticLogs writes a small hand-built event log (with decision
// lines interleaved) and series log and returns their paths. The run it
// describes: three jobs on tenant/class dimensions —
//
//	alpha-0 (acme, gold):  admitted immediately, completed on time
//	beta-1  (acme, gold):  admitted after a wait, finished past deadline
//	gamma-2 (zeta, batch): dropped at its deadline while queued
func writeSyntheticLogs(t *testing.T) (eventsPath, seriesPath string) {
	t.Helper()
	return writeSyntheticLogsWith(t, true)
}

// writeSyntheticLogsWith is writeSyntheticLogs with or without the
// interleaved decision records (a run recorded without -explain).
func writeSyntheticLogsWith(t *testing.T, explain bool) (eventsPath, seriesPath string) {
	t.Helper()
	dir := t.TempDir()
	eventsPath = filepath.Join(dir, "events.jsonl")
	seriesPath = filepath.Join(dir, "series.jsonl")

	var b []byte
	line := func(e obs.Event) {
		b = obs.AppendEventJSON(b, e)
		b = append(b, '\n')
	}
	b = append(b, `{"schema":"repro.events.v1"}`+"\n"...)
	// alpha-0: no wait, runs 0..2 in spans across the layers.
	line(obs.Event{E: "span", T: 0, Dur: 0, PID: 0, TID: 0, Name: "queued", Cat: "sched",
		Attrs: []obs.Attr{obs.S("job", "alpha-0"), obs.S("tenant", "acme"), obs.S("class", "gold")}})
	line(obs.Event{E: "begin", ID: 2, T: 0, PID: 0, TID: 0, Name: "run", Cat: "sched",
		Attrs: []obs.Attr{obs.S("job", "alpha-0")}})
	line(obs.Event{E: "span", T: 0, Dur: 0.5, PID: 1, TID: 0, Name: "pfs.read", Cat: "pfs"})
	line(obs.Event{E: "begin", ID: 4, T: 0.5, PID: 1, TID: 0, Name: "mpi.send", Cat: "mpi"})
	line(obs.Event{E: "end", ID: 4, T: 1.25})
	line(obs.Event{E: "span", T: 1.25, Dur: 0.75, PID: 1, TID: 0, Name: "cc.map", Cat: "cc"})
	line(obs.Event{E: "end", ID: 2, T: 2})
	// beta-1: waits 3s, runs 3..6, misses its deadline.
	line(obs.Event{E: "span", T: 0, Dur: 3, PID: 0, TID: 1, Name: "queued", Cat: "sched",
		Attrs: []obs.Attr{obs.S("job", "beta-1"), obs.S("tenant", "acme"), obs.S("class", "gold")}})
	line(obs.Event{E: "begin", ID: 6, T: 3, PID: 0, TID: 1, Name: "run", Cat: "sched",
		Attrs: []obs.Attr{obs.S("job", "beta-1")}})
	line(obs.Event{E: "span", T: 3, Dur: 1.5, PID: 2, TID: 0, Name: "adio.read", Cat: "adio"})
	line(obs.Event{E: "end", ID: 6, T: 6})
	line(obs.Event{E: "attr", ID: 6, Attrs: []obs.Attr{obs.I("deadline_miss", 1)}})
	// gamma-2: queued 0..4, then deadline-dropped.
	line(obs.Event{E: "span", T: 0, Dur: 4, PID: 0, TID: 2, Name: "queued", Cat: "sched",
		Attrs: []obs.Attr{obs.S("job", "gamma-2"), obs.S("tenant", "zeta"), obs.S("class", "batch")}})
	line(obs.Event{E: "instant", T: 4, PID: 0, TID: 2, Name: "deadline-drop", Cat: "sched",
		Attrs: []obs.Attr{obs.S("job", "gamma-2")}})
	line(obs.Event{E: "alert", T: 5, Name: "queue_depth_high", Attrs: []obs.Attr{
		obs.S("expr", "queue_depth_high=cluster_queue_depth<2"), obs.F("value", 2.5), obs.F("threshold", 2)}})
	// Interleaved decision records, as -explain writes them: a round that
	// leaves jobs pending closes with a round record and the skips whose
	// cause changed; gamma-2's skip holds through round 2.
	recs := []decision.Record{
		{Round: 1, T: 0, Policy: "fifo", Job: "alpha-0", Seq: 0, Outcome: decision.Admit,
			Width: 4, Wait: 0, Free: 8, FreeRanks: "0-7", Ranks: "0-3"},
		{Round: 1, T: 0, Policy: "fifo", Outcome: decision.Round,
			Free: 4, FreeRanks: "4-7", Pending: 2},
		{Round: 1, T: 0, Policy: "fifo", Job: "beta-1", Seq: 1, Outcome: decision.Skip,
			Reason: decision.InsufficientRanks, BlockedBy: "alpha-0", BlockedBySeq: 0,
			Width: 8, Submit: 0},
		{Round: 1, T: 0, Policy: "fifo", Job: "gamma-2", Seq: 2, Outcome: decision.Skip,
			Reason: decision.InsufficientRanks, BlockedBy: "alpha-0", BlockedBySeq: 0,
			Width: 16, Submit: 0},
		{Round: 2, T: 3, Policy: "fifo", Job: "beta-1", Seq: 1, Outcome: decision.Admit,
			Width: 8, Wait: 3, Free: 8, FreeRanks: "0-7", Ranks: "0-7"},
		{Round: 2, T: 3, Policy: "fifo", Outcome: decision.Round,
			Free: 0, FreeRanks: "", Pending: 1},
		{Round: 3, T: 4, Policy: "fifo", Job: "gamma-2", Seq: 2, Outcome: decision.Drop,
			Reason: decision.DeadlineDrop, Width: 16, Wait: 4, Free: 0, FreeRanks: ""},
	}
	if !explain {
		recs = nil
	}
	for _, rec := range recs {
		b = decision.AppendJSON(b, rec)
		b = append(b, '\n')
	}
	if err := os.WriteFile(eventsPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var sb bytes.Buffer
	ser := obs.NewSeriesSink(&sb)
	ser.Sample(obs.SeriesPoint{Round: 1, T: 0, QueueDepth: 2, RanksBusy: 4, RanksTotal: 8,
		OSTBusy: []float64{0.5, 0.25}, Classes: []obs.ClassWait{{Class: "gold", N: 1, P50: 0, P99: 0}}})
	ser.Sample(obs.SeriesPoint{Round: 2, T: 3, QueueDepth: 1, RanksBusy: 8, RanksTotal: 8,
		OSTBusy: []float64{1.5, 0.75}, Classes: []obs.ClassWait{{Class: "gold", N: 2, P50: 1.5, P99: 3}}})
	if err := ser.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seriesPath, sb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return eventsPath, seriesPath
}

func TestReportAccounting(t *testing.T) {
	ev, se := writeSyntheticLogs(t)
	d, err := Load(ev, se)
	if err != nil {
		t.Fatal(err)
	}
	r := Build(d, 2)
	s := r.Summary

	if s.Jobs != 3 || s.Completed != 2 || s.Dropped != 1 || s.Misses != 1 {
		t.Fatalf("job accounting: %+v", s)
	}
	if s.Makespan != 6 {
		t.Fatalf("makespan = %v, want 6", s.Makespan)
	}
	if s.Alerts != 1 {
		t.Fatalf("alerts = %d, want 1", s.Alerts)
	}
	if s.SeriesPoints != 2 {
		t.Fatalf("series points = %d, want 2", s.SeriesPoints)
	}
	// Phases: queued 0+3+4, pfs 0.5, fabric 0.75 (begin/end pair), compute
	// 0.75 (cc span) + 1.5 (adio span). The run begin/end pairs must NOT
	// land in any bucket.
	ph := s.Phases
	if ph.Queued != 7 || ph.PFS != 0.5 || ph.Fabric != 0.75 || ph.Compute != 2.25 {
		t.Fatalf("phases: %+v", ph)
	}

	if len(s.Tenants) != 2 {
		t.Fatalf("tenant rows: %+v", s.Tenants)
	}
	acme, zeta := s.Tenants[0], s.Tenants[1]
	if acme.Tenant != "acme" || acme.Class != "gold" || acme.Jobs != 2 ||
		acme.Completed != 2 || acme.Misses != 1 || acme.Attainment != 0.5 {
		t.Fatalf("acme row: %+v", acme)
	}
	if acme.WaitMean != 1.5 || acme.WaitMax != 3 {
		t.Fatalf("acme waits: %+v", acme)
	}
	if zeta.Tenant != "zeta" || zeta.Jobs != 1 || zeta.Dropped != 1 || zeta.Attainment != 0 {
		t.Fatalf("zeta row: %+v", zeta)
	}

	// Top-K: gamma-2 (4s) then beta-1 (3s); alpha-0 cut by topK=2. Blame
	// sentences come from the decision trace.
	if len(s.SlowJobs) != 2 {
		t.Fatalf("slow jobs: %+v", s.SlowJobs)
	}
	if s.SlowJobs[0].Job != "gamma-2" || s.SlowJobs[0].Wait != 4 {
		t.Fatalf("slowest: %+v", s.SlowJobs[0])
	}
	if !strings.Contains(s.SlowJobs[0].Blame, "insufficient-ranks behind alpha-0") {
		t.Fatalf("blame sentence: %q", s.SlowJobs[0].Blame)
	}
	if s.SlowJobs[1].Job != "beta-1" || s.SlowJobs[1].Wait != 3 {
		t.Fatalf("second slowest: %+v", s.SlowJobs[1])
	}
}

func TestReportTextDeterministicAndComplete(t *testing.T) {
	ev, se := writeSyntheticLogs(t)
	render := func() string {
		d, err := Load(ev, se)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := Build(d, 0).WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, c := render(), render()
	if a != c {
		t.Fatal("report text differs across two renders of the same logs")
	}
	for _, want := range []string{
		"-- makespan attribution --",
		"-- tenants --",
		"slowest-queued jobs",
		"-- series (2 points, rounds 1..2) --",
		"ost busy",
		"-- summary (json) --",
		`"schema": "repro.report.v1"`,
		"gamma-2 dropped after 4.0000s queued",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("report text missing %q:\n%s", want, a)
		}
	}
	// The alert, named with its time, rule and value, right after the header.
	if lines := strings.Split(a, "\n"); len(lines) < 3 ||
		lines[2] != "alert queue_depth_high at t=5s: queue_depth_high=cluster_queue_depth<2 is 2.5" {
		t.Fatalf("report does not list the alert after its header:\n%s", a)
	}
}

func TestReportWithoutSeriesOrDecisions(t *testing.T) {
	ev, _ := writeSyntheticLogsWith(t, false)
	d, err := Load(ev, "")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := Build(d, 0).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "-- series") {
		t.Fatal("series section rendered without series input")
	}
	if !strings.Contains(out, "no decision records") {
		t.Fatal("missing decision-hint line")
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.jsonl"), ""); err == nil {
		t.Fatal("want error for missing events file")
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"schema":"repro.events.v9"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad, ""); err == nil {
		t.Fatal("want error for wrong events schema")
	}
	ev, _ := writeSyntheticLogs(t)
	badSeries := filepath.Join(dir, "badseries.jsonl")
	if err := os.WriteFile(badSeries, []byte(`{"schema":"repro.events.v1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(ev, badSeries); err == nil {
		t.Fatal("want error for wrong series schema")
	}
}
