package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/obs/decision"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.AddSink(NewChromeTrace())
	tr.SetProcessName(0, "x")
	tr.SetThreadName(0, 0, "x")
	tr.BindRank(3, 1)
	tr.UnbindRank(3)
	id := tr.BeginRank(0, "a", "b", 0)
	tr.End(id, 1)
	tr.AddAttr(id, S("k", "v"))
	tr.SpanRank(0, "a", "b", 0, 1)
	tr.Span(0, 0, "a", "b", 0, 1)
	tr.Instant(0, 0, "a", "b", 0)
	tr.Counter("c", 0, 1)
	tr.Alert("a", 0)
	if tr.NumSpans() != 0 {
		t.Fatal("spans on nil tracer")
	}
	tr.Metrics().Counter("x").Add(1)
	tr.Metrics().Gauge("x").Set(1)
	tr.Metrics().Histogram("x").Observe(1)
	if got := tr.Metrics().Dump(); got != "" {
		t.Fatalf("nil registry dump %q", got)
	}
}

// TestDisabledZeroAlloc is the acceptance gate for the hot-path pattern:
// with a nil tracer and the `if tr != nil` guard at attribute-building call
// sites, instrumentation adds zero allocations.
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		// The guarded pattern used on pfs/mpi hot paths.
		if tr != nil {
			tr.SpanRank(3, "pfs.read", "pfs", 0, 1, I("bytes", 4096))
		}
		// Attribute-free calls are safe even unguarded.
		tr.SpanRank(3, "pfs.read", "pfs", 0, 1)
		id := tr.BeginRank(3, "mpi.bcast", "mpi", 0)
		tr.End(id, 1)
		tr.Counter("queue_depth", 0, 1)
		var rt *RankTime
		rt.Record(3, WaitIO, 0, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f/op, want 0", allocs)
	}
}

// discard is a sink that reads events and names and keeps nothing.
type discard struct{}

func (discard) Emit(Event)                  {}
func (discard) ProcessName(int, string)     {}
func (discard) ThreadName(int, int, string) {}

// TestTracerKeepsNothing: the tracer is a pure emitter. With one sink that
// discards, recording a span, a counter sample or a track name allocates
// nothing, however many have gone by: nothing is appended to the tracer.
func TestTracerKeepsNothing(t *testing.T) {
	tr := New()
	tr.AddSink(discard{})
	tr.BindRank(3, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Begin(1, 3, "cc.get", "cc", 0)
		tr.End(id, 1)
		tr.Span(1, 3, "pfs.read", "pfs", 0, 1)
		tr.SpanRank(3, "cc.map", "cc", 0, 1)
		tr.Counter("cluster_queue_depth", 0, 1)
		tr.SetThreadName(1, 3, "rank 3")
		tr.SetProcessName(1, "job 0")
	})
	if allocs != 0 {
		t.Fatalf("tracer with a discarding sink allocated %.1f/op, want 0", allocs)
	}
	if tr.NumSpans() != 3*1001 {
		t.Fatalf("NumSpans %d, want %d: spans are counted whatever keeps them", tr.NumSpans(), 3*1001)
	}
}

// TestDecisionStoreAllocBound: the decision store grows in fixed chunks and
// Decisions flattens them once per read, so keeping n records and reading
// them allocates about twice their bytes — the chunks and the flat copy —
// where a slice re-grown by append copies each record several times. A read
// with nothing new allocates nothing, and every read returns the whole
// stream in order.
func TestDecisionStoreAllocBound(t *testing.T) {
	const n = 20000
	tr := New()
	tr.EnableDecisions()
	rec := decision.Record{Policy: "fifo", Job: "sum-1", Seq: 1, Outcome: decision.Skip,
		Reason: decision.HeadOfLine, BlockedBy: "sum-0", Width: 8}
	record := func(from, to int) {
		for i := from; i < to; i++ {
			rec.Round = i
			tr.Decision(rec)
		}
	}
	inOrder := func(got []decision.Record, want int) {
		t.Helper()
		if len(got) != want {
			t.Fatalf("Decisions() holds %d records, want %d", len(got), want)
		}
		for i := range got {
			if got[i].Round != i {
				t.Fatalf("record %d has round %d: the stream is out of order", i, got[i].Round)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	record(0, n)
	got := tr.Decisions()
	runtime.ReadMemStats(&after)
	kept := uint64(n * unsafe.Sizeof(rec))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*kept+kept/8 {
		t.Errorf("keeping %d records (%d bytes) and reading them allocated %d bytes, want <= %d",
			n, kept, alloc, 2*kept+kept/8)
	}
	inOrder(got, n)
	if allocs := testing.AllocsPerRun(10, func() { got = tr.Decisions() }); allocs != 0 {
		t.Errorf("a read with no new record allocated %v times, want 0", allocs)
	}
	inOrder(got, n)
	record(n, n+decChunk+1) // past a chunk boundary after a read
	inOrder(tr.Decisions(), n+decChunk+1)
}

func TestRankBindingRoutesSpans(t *testing.T) {
	tr, sink := New(), &memSink{}
	tr.AddSink(sink)
	tr.SpanRank(2, "before", "c", 0, 1)
	tr.BindRank(2, 5)
	tr.SpanRank(2, "during", "c", 1, 2)
	tr.UnbindRank(2)
	tr.SpanRank(2, "after", "c", 2, 3)
	pids := map[string]int{}
	for _, e := range sink.events {
		pids[e.Name] = e.PID
	}
	if pids["before"] != 0 || pids["during"] != 5 || pids["after"] != 0 {
		t.Fatalf("pids %v", pids)
	}
}

func TestOpenSpanAndAttrs(t *testing.T) {
	tr, ct := New(), NewChromeTrace()
	tr.AddSink(ct)
	id := tr.Begin(1, 0, "run", "sched", 2.5, S("job", "a"))
	tr.AddAttr(id, S("err", "boom"))
	tr.End(id, 4.5)
	if got := ct.spans[0]; got.start != 2.5 || got.dur != 2 || len(got.attrs) != 2 {
		t.Fatalf("span %+v", got)
	}
	// A never-closed span renders as zero duration.
	tr.Begin(0, 0, "open", "c", 3)
	if got := ct.spans[1]; got.dur != 0 {
		t.Fatalf("open span %+v, want zero duration", got)
	}
}

func TestRegistryDumpStableAndSorted(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("zeta").Add(3)
		r.Counter("alpha").Add(1.25)
		r.Gauge("util").Set(87.5)
		h := r.Histogram("wait", 0.1, 1, 10)
		h.Observe(0.05)
		h.Observe(5)
		h.Observe(50)
		return r
	}
	d1, d2 := mk().Dump(), mk().Dump()
	if d1 != d2 {
		t.Fatal("dump not deterministic")
	}
	for _, want := range []string{
		"counter alpha 1.25\n",
		"counter zeta 3\n",
		"gauge util 87.5\n",
		"histogram wait count 3 sum 55.05 mean 18.349999999999998 buckets le=0.1:1 le=1:0 le=10:1 le=+Inf:1\n",
	} {
		if !strings.Contains(d1, want) {
			t.Fatalf("dump missing %q:\n%s", want, d1)
		}
	}
	if strings.Index(d1, "alpha") > strings.Index(d1, "zeta") {
		t.Fatal("counters not sorted")
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	if h.Mean() != 0 {
		t.Fatal("empty mean")
	}
	h.Observe(2)
	h.Observe(4)
	if h.Count() != 2 || h.Sum() != 6 || h.Mean() != 3 {
		t.Fatalf("count %d sum %g mean %g", h.Count(), h.Sum(), h.Mean())
	}
	if r.Histogram("h") != h {
		t.Fatal("histogram not reused")
	}
}

func buildTrace() *ChromeTrace {
	tr, ct := New(), NewChromeTrace()
	tr.AddSink(ct)
	tr.SetProcessName(0, "cluster")
	tr.SetProcessName(1, "job:sum-0")
	tr.SetThreadName(1, 3, "rank 3")
	tr.Span(0, 0, "queued", "sched", 0, 0.5, S("job", "sum-0"))
	id := tr.Begin(0, 0, "run", "sched", 0.5, S("job", "sum-0"))
	tr.BindRank(3, 1)
	tr.SpanRank(3, "adio.iter", "adio", 0.6, 0.9, I("iter", 0), I("bytes", 4<<20))
	tr.SpanRank(3, "pfs.read", "pfs", 0.6, 0.8, I("bytes", 4<<20), I("retries", 1))
	tr.UnbindRank(3)
	tr.End(id, 1.0)
	tr.Counter("queue_depth", 0, 1)
	tr.Counter("queue_depth", 0.5, 0)
	return ct
}

func TestChromeTraceExport(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := buildTrace().Export(&b1); err != nil {
		t.Fatal(err)
	}
	if err := buildTrace().Export(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("export not byte-identical across identical builds")
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b1.String())
	}
	// 2 process_name + 1 thread_name + 4 spans + 2 counter samples.
	if len(doc.TraceEvents) != 9 {
		t.Fatalf("%d events, want 9", len(doc.TraceEvents))
	}
	byPh := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPh[ev["ph"].(string)]++
	}
	if byPh["M"] != 3 || byPh["X"] != 4 || byPh["C"] != 2 {
		t.Fatalf("event mix %v", byPh)
	}
	// Spot-check microsecond timestamps and args.
	s := b1.String()
	for _, want := range []string{
		`"ts":600000.000`,           // 0.6 s
		`"dur":200000.000`,          // pfs.read 0.2 s
		`"args":{"bytes":"4194304"`, // attribute order preserved
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("export missing %q:\n%s", want, s)
		}
	}
}
