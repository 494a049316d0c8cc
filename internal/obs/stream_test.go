package obs

import (
	"bytes"
	"testing"

	"repro/internal/obs/decision"
)

// emitMix drives one tracer through every event-producing path: open/close
// spans with late attributes, complete spans, instants, counter samples, SLO
// alerts, and decision records.
func emitMix(t *Tracer) {
	t.EnableDecisions()
	for i := 0; i < 50; i++ {
		ts := float64(i)
		id := t.Begin(0, i, "run", "sched", ts, S("job", "j"), I("i", int64(i)))
		t.Span(1, i, "phase", "cc", ts, ts+0.5, F("dur", 0.5))
		t.Instant(0, i, "memo-hit", "sched", ts+0.25)
		t.Counter("cluster_queue_depth", ts, float64(50-i))
		t.AddAttr(id, S("late", "attr"))
		t.End(id, ts+1)
		t.Alert("queue_deep", ts+0.75, F("depth", float64(i)))
		t.Decision(decision.Record{Round: i + 1, T: ts, Policy: "fifo",
			Job: "j", Seq: i, Outcome: decision.Admit, BlockedBySeq: -1})
	}
}

// TestStreamingSinkBytesIdentical is the contract that lets retention follow
// the reader: with a JSONLSink installed, a tracer that only streams its
// spans through (KeepSpans(false)) emits exactly the bytes of one that keeps
// them (span IDs included) while holding no span and no sample. Decision
// records are not spans — they are kept whenever decision tracing is on.
func TestStreamingSinkBytesIdentical(t *testing.T) {
	var kept, unkept bytes.Buffer

	tr := New()
	tr.SetSink(NewJSONLSink(&kept))
	emitMix(tr)

	ts := New()
	ts.SetSink(NewJSONLSink(&unkept))
	ts.KeepSpans(false)
	emitMix(ts)

	if !bytes.Equal(kept.Bytes(), unkept.Bytes()) {
		t.Fatalf("event log depends on retention:\nkept %d bytes\nunkept %d bytes",
			kept.Len(), unkept.Len())
	}
	if kept.Len() == 0 {
		t.Fatal("no events emitted")
	}

	if got, want := ts.NumSpans(), tr.NumSpans(); got != want {
		t.Fatalf("unkept NumSpans = %d, want %d", got, want)
	}
	// Bounded memory: nothing that grows with the run's spans is held.
	if n := len(ts.spans); n != 0 {
		t.Fatalf("tracer kept %d spans", n)
	}
	if n := len(ts.samples); n != 0 {
		t.Fatalf("tracer kept %d counter samples", n)
	}
	visited := 0
	ts.EachSpan(func(SpanView) { visited++ })
	if visited != 0 {
		t.Fatalf("EachSpan visited %d spans nobody asked to keep", visited)
	}
	if got, want := len(ts.Decisions()), len(tr.Decisions()); got != want || got == 0 {
		t.Fatalf("decisions: %d without spans kept, %d with; want equal and > 0", got, want)
	}
	// A fresh tracer keeps everything, as tests and probes rely on.
	if n := len(tr.spans); n != tr.NumSpans() {
		t.Fatalf("fresh tracer holds %d spans, NumSpans %d", n, tr.NumSpans())
	}
}

// TestStreamingWithoutSink: a tracer keeping no spans and feeding no sink
// simply drops them (metrics still aggregate); End/AddAttr on their ids are
// safe no-ops; and keeping cannot start after spans have gone by.
func TestStreamingWithoutSink(t *testing.T) {
	tr := New()
	tr.KeepSpans(false)
	tr.KeepSpans(true) // nothing recorded yet: still free to choose
	tr.KeepSpans(false)
	id := tr.Begin(0, 0, "run", "sched", 0)
	tr.AddAttr(id, S("k", "v"))
	tr.End(id, 1)
	tr.Counter("c", 0, 1)
	if tr.NumSpans() != 1 || len(tr.spans) != 0 || len(tr.samples) != 0 {
		t.Fatalf("NumSpans %d, kept %d spans %d samples; want 1 / 0 / 0", tr.NumSpans(), len(tr.spans), len(tr.samples))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("KeepSpans(true) after an unkept span did not panic: ids would misindex the store")
			}
		}()
		tr.KeepSpans(true)
	}()
	var nilTr *Tracer
	nilTr.KeepSpans(true) // nil-safe
}
