package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// drivePerfetto records one of everything the Perfetto export renders: track
// names (one thread named twice, so the last name wins), a complete span, a
// span opened, given a late attribute and closed, then attributed after it
// closed, a span that never closes, an instant, counter samples and an
// alert.
func drivePerfetto(tr *Tracer) {
	tr.SetProcessName(1, "job 0: sum-0")
	tr.SetProcessName(0, "cluster scheduler")
	tr.SetThreadName(0, 0, "job sum-0")
	tr.SetThreadName(1, 3, "rank 3")
	tr.SetThreadName(1, 2, "rank 2")
	tr.SetThreadName(0, 0, `job "sum-0"`)
	tr.Span(0, 0, "queued", "sched", 0.1, 0.3, S("job", "sum-0"), S("tenant", "acme"))
	run := tr.Begin(0, 0, "run", "sched", 0.3, S("job", "sum-0"))
	tr.BindRank(3, 1)
	get := tr.BeginRank(3, "cc.get", "cc", 0.3)
	tr.AddAttr(get, I("root", 0))
	tr.SpanRank(3, "pfs.read", "pfs", 0.35, 0.8, I("bytes", 4<<20))
	tr.End(get, 0.9)
	tr.BeginRank(3, "mpi.bcast", "mpi", 0.9)
	tr.UnbindRank(3)
	tr.End(run, 1.25)
	tr.AddAttr(run, S("deadline_miss", "0.25"))
	tr.Instant(0, 0, "deadline-drop", "sched", 1.5, S("job", "sum-1"))
	tr.Counter("cluster_queue_depth", 0.3, 1)
	tr.Counter("cluster_queue_depth", 1.5, 0)
	tr.Alert("queue-wait-p99", 1.75, S("expr", "p99(q)<1"), F("value", 2.5))
}

// TestChromeTraceMatchesGolden pins the Perfetto export byte for byte. The
// golden was written by the tracer's own span store before the export became
// a sink, so the sink rebuilds exactly what the store held: creation order,
// late attributes, never-closed spans, metadata first.
func TestChromeTraceMatchesGolden(t *testing.T) {
	tr, ct := New(), NewChromeTrace()
	tr.AddSink(ct)
	drivePerfetto(tr)
	var buf bytes.Buffer
	if err := ct.Export(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Perfetto export drifted from golden\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestSinksAreIndependent: each sink sees the whole stream whatever else is
// attached, so the event log and the export are the same bytes alone and
// together, and span ids do not depend on either.
func TestSinksAreIndependent(t *testing.T) {
	run := func(events, trace bool) (log, export []byte, spans int) {
		tr := New()
		var lb, eb bytes.Buffer
		var sink *JSONLSink
		var ct *ChromeTrace
		if trace {
			ct = NewChromeTrace()
			tr.AddSink(ct)
		}
		if events {
			sink = NewJSONLSink(&lb)
			tr.AddSink(sink)
		}
		drivePerfetto(tr)
		if sink != nil {
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if ct != nil {
			if err := ct.Export(&eb); err != nil {
				t.Fatal(err)
			}
		}
		return lb.Bytes(), eb.Bytes(), tr.NumSpans()
	}
	logOnly, _, n1 := run(true, false)
	_, exportOnly, n2 := run(false, true)
	log, export, n3 := run(true, true)
	if !bytes.Equal(log, logOnly) || len(log) == 0 {
		t.Error("the event log depends on whether the export is attached")
	}
	if !bytes.Equal(export, exportOnly) || len(export) == 0 {
		t.Error("the export depends on whether the event log is attached")
	}
	if _, _, n0 := run(false, false); n0 != 7 || n1 != n0 || n2 != n0 || n3 != n0 {
		t.Errorf("NumSpans %d bare, %d / %d / %d with sinks; want 7 each", n0, n1, n2, n3)
	}
	if bytes.Contains(log, []byte("rank 3")) {
		t.Error("a track name reached the event log, which does not read names")
	}
}
