package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
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
	tr.EachSpan(func(SpanView) { t.Fatal("span on nil tracer") })
	if tr.NumSpans() != 0 {
		t.Fatal("spans on nil tracer")
	}
	tr.Metrics().Counter("x").Add(1)
	tr.Metrics().Gauge("x").Set(1)
	tr.Metrics().Histogram("x").Observe(1)
	if got := tr.Metrics().Dump(); got != "" {
		t.Fatalf("nil registry dump %q", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var v map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("nil-tracer export invalid JSON: %v", err)
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

func TestRankBindingRoutesSpans(t *testing.T) {
	tr := New()
	tr.SpanRank(2, "before", "c", 0, 1)
	tr.BindRank(2, 5)
	tr.SpanRank(2, "during", "c", 1, 2)
	tr.UnbindRank(2)
	tr.SpanRank(2, "after", "c", 2, 3)
	pids := map[string]int{}
	tr.EachSpan(func(sv SpanView) { pids[sv.Name] = sv.PID })
	if pids["before"] != 0 || pids["during"] != 5 || pids["after"] != 0 {
		t.Fatalf("pids %v", pids)
	}
}

func TestOpenSpanAndAttrs(t *testing.T) {
	tr := New()
	id := tr.Begin(1, 0, "run", "sched", 2.5, S("job", "a"))
	tr.AddAttr(id, S("err", "boom"))
	tr.End(id, 4.5)
	var got SpanView
	tr.EachSpan(func(sv SpanView) { got = sv })
	if got.Start != 2.5 || got.End != 4.5 || len(got.Attrs) != 2 {
		t.Fatalf("span %+v", got)
	}
	// A never-closed span renders as zero duration.
	tr2 := New()
	tr2.Begin(0, 0, "open", "c", 3)
	tr2.EachSpan(func(sv SpanView) {
		if sv.End != sv.Start {
			t.Fatalf("open span end %g, want %g", sv.End, sv.Start)
		}
	})
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

func buildTrace() *Tracer {
	tr := New()
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
	return tr
}

func TestChromeTraceExport(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := buildTrace().WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := buildTrace().WriteChromeTrace(&b2); err != nil {
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
