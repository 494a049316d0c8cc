package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// memSink collects mirrored events in memory.
type memSink struct{ events []Event }

func (m *memSink) Emit(e Event) { m.events = append(m.events, e) }

// driveTracer exercises every mirrored emission path in a fixed order; the
// golden file pins its serialized form.
func driveTracer(tr *Tracer) {
	tr.Span(0, 0, "queued", "sched", 0, 0.5, S("job", "sum-0"))
	id := tr.Begin(0, 0, "run", "sched", 0.5, S("job", "sum-0"), I("ranks", 4))
	tr.BindRank(3, 1)
	tr.SpanRank(3, "pfs.read", "pfs", 0.6, 0.8, I("bytes", 4<<20))
	tr.UnbindRank(3)
	tr.AddAttr(id, S("err", "boom"))
	tr.End(id, 1.25)
	tr.Instant(0, 0, "deadline-drop", "sched", 1.5, S("job", "sum-1"))
	tr.Counter("cluster_queue_depth", 1.5, 3)
	tr.Alert("queue-wait-p99", 1.75, S("expr", "p99(q)<1"), F("value", 2.5))
}

func TestJSONLSinkMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := New()
	sink := NewJSONLSink(&buf)
	tr.AddSink(sink)
	driveTracer(tr)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "events.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -args -update` to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("event log drifted from golden (schema change? bump EventSchema and regenerate)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestEventLogRoundTripsByteIdentically(t *testing.T) {
	var buf bytes.Buffer
	tr := New()
	sink := NewJSONLSink(&buf)
	tr.AddSink(sink)
	driveTracer(tr)
	sink.Close()

	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events read")
	}
	// Re-serializing the parsed events reproduces the original bytes: the
	// JSONL layout is a pure function of the Event values.
	var re bytes.Buffer
	sink = NewJSONLSink(&re)
	for _, e := range events {
		sink.Emit(e)
	}
	sink.Close()
	if !bytes.Equal(buf.Bytes(), re.Bytes()) {
		t.Fatalf("round trip not byte-identical\noriginal:\n%s\nreserialized:\n%s", buf.Bytes(), re.Bytes())
	}
}

func TestTracerMirrorsEventsInEmissionOrder(t *testing.T) {
	sink := &memSink{}
	tr := New()
	tr.AddSink(sink)
	driveTracer(tr)
	var kinds []string
	for _, e := range sink.events {
		kinds = append(kinds, e.E)
	}
	want := []string{"span", "begin", "span", "attr", "end", "instant", "sample", "alert"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}
	begin := sink.events[1]
	if begin.ID == 0 || begin.Name != "run" || begin.Cat != "sched" || begin.T != 0.5 {
		t.Fatalf("begin event %+v", begin)
	}
	end := sink.events[4]
	if end.ID != begin.ID || end.T != 1.25 {
		t.Fatalf("end event %+v does not pair with begin %+v", end, begin)
	}
	read := sink.events[2]
	t0, t1 := 0.6, 0.8
	if read.PID != 1 || read.TID != 3 || read.Dur != t1-t0 {
		t.Fatalf("rank-routed span %+v", read)
	}
	sample := sink.events[6]
	if sample.Name != "cluster_queue_depth" || sample.Value != 3 {
		t.Fatalf("sample %+v", sample)
	}
	alert := sink.events[7]
	if alert.Name != "queue-wait-p99" || len(alert.Attrs) != 2 {
		t.Fatalf("alert %+v", alert)
	}
}

func TestReadEventsValidatesHeader(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("")); err == nil {
		t.Fatal("empty log accepted")
	}
	if _, err := ReadEvents(strings.NewReader(`{"schema":"other.v9"}` + "\n")); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadEvents(strings.NewReader(`{"schema":"repro.events.v1"}` + "\n")); err != nil {
		t.Fatalf("header-only log rejected: %v", err)
	}
}

func TestAlertGetsSpanAndEvent(t *testing.T) {
	sink, ct := &memSink{}, NewChromeTrace()
	tr := New()
	tr.AddSink(sink)
	tr.AddSink(ct)
	tr.Alert("rule", 2.5, S("value", "9"))
	if len(sink.events) != 1 || sink.events[0].E != "alert" {
		t.Fatalf("events %+v", sink.events)
	}
	if tr.NumSpans() != 1 || len(ct.spans) != 1 {
		t.Fatalf("NumSpans %d, exported spans %d; want 1 and 1", tr.NumSpans(), len(ct.spans))
	}
	if sp := ct.spans[0]; sp.cat != "slo" || sp.start != 2.5 || sp.dur != 0 || sp.pid != 0 || sp.tid != 0 {
		t.Fatalf("alert span %+v", sp)
	}
}
