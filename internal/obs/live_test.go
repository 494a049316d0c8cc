package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs/decision"
)

func publishFrame(l *Live, now float64, depth, busy int) {
	reg := NewRegistry()
	reg.Counter("pfs_read_bytes").Set(1 << 20)
	memo := reg.GaugeVec("memo_events", "kind")
	memo.With("hits").Set(2)
	memo.With("misses").Set(1)
	h := reg.Histogram("cluster_queue_wait_seconds", 0.01, 0.1, 1)
	h.Observe(0.05)
	l.Publish(&Frame{
		Now: now, QueueDepth: depth, RanksBusy: busy, RanksTotal: 8,
		Jobs: []JobState{
			{Name: "sum-0", State: "done", Ranks: 4, Submit: 0, Start: 0, End: 0.5},
			{Name: "sum-1", State: "running", Ranks: 4, Submit: 0, Start: 0.5, End: -1},
		},
		OSTReadLat: []float64{0.001, 0.004, 0},
		Reg:        reg,
		SLO: []SLOStatus{
			{Name: "wait", Expr: "p99(cluster_queue_wait_seconds)<60", OK: true, Valid: true, Value: 0.09, Bound: 60},
		},
	})
}

func TestLivePublishLatestAndHistory(t *testing.T) {
	l := NewLive()
	if l.Latest() != nil {
		t.Fatal("frame before publish")
	}
	publishFrame(l, 1.0, 3, 4)
	publishFrame(l, 2.0, 1, 8)
	f := l.Latest()
	if f.Seq != 2 || f.Now != 2.0 || f.QueueDepth != 1 {
		t.Fatalf("latest %+v", f)
	}
	qd, rb := l.History()
	if len(qd) != 2 || qd[0] != 3 || qd[1] != 1 || rb[1] != 8 {
		t.Fatalf("history %v %v", qd, rb)
	}
	var nilL *Live
	nilL.Publish(&Frame{})
	if nilL.Latest() != nil {
		t.Fatal("nil live returned a frame")
	}
}

func TestLiveHistoryBounded(t *testing.T) {
	l := NewLive()
	for i := 0; i < historyCap+50; i++ {
		l.Publish(&Frame{Now: float64(i)})
	}
	qd, _ := l.History()
	if len(qd) != historyCap {
		t.Fatalf("history length %d, want %d", len(qd), historyCap)
	}
	if f := l.Latest(); f.Seq != historyCap+50 {
		t.Fatalf("seq %d", f.Seq)
	}
}

func TestTelemetryHandlerEndpoints(t *testing.T) {
	l := NewLive()
	srv := httptest.NewServer(TelemetryHandler(l))
	defer srv.Close()
	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get("Content-Type")
	}

	// Before the first frame: /metrics empty but valid, /healthz ok with 0
	// frames, /jobs an empty array.
	body, ct := get("/metrics")
	if body != "" || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("pre-frame /metrics %q (%s)", body, ct)
	}
	body, _ = get("/healthz")
	var hz struct {
		OK     bool    `json:"ok"`
		Frames int     `json:"frames"`
		Now    float64 `json:"virtual_now"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil || !hz.OK || hz.Frames != 0 {
		t.Fatalf("pre-frame /healthz %q: %v", body, err)
	}
	body, _ = get("/jobs")
	var jobs []JobState
	if err := json.Unmarshal([]byte(body), &jobs); err != nil || len(jobs) != 0 {
		t.Fatalf("pre-frame /jobs %q: %v", body, err)
	}

	publishFrame(l, 1.5, 2, 6)

	body, _ = get("/metrics")
	if err := lintPromText([]byte(body)); err != nil {
		t.Fatalf("scrape does not lint: %v\n%s", err, body)
	}
	for _, want := range []string{"pfs_read_bytes 1.048576e+06", `memo_events{kind="hits"} 2`,
		`cluster_queue_wait_seconds_bucket{le="+Inf"} 1`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	body, _ = get("/healthz")
	if err := json.Unmarshal([]byte(body), &hz); err != nil || hz.Frames != 1 || hz.Now != 1.5 {
		t.Fatalf("/healthz %q: %v", body, err)
	}
	body, _ = get("/jobs")
	if err := json.Unmarshal([]byte(body), &jobs); err != nil || len(jobs) != 2 {
		t.Fatalf("/jobs %q: %v", body, err)
	}
	if jobs[0].Name != "sum-0" || jobs[0].State != "done" ||
		jobs[1].State != "running" || jobs[1].End != -1 {
		t.Fatalf("jobs %+v", jobs)
	}

	// /decisions: an empty v2 payload without records, then the frame's
	// records as canonical lines a client unmarshals back to the same values.
	var ds struct {
		Schema    string            `json:"schema"`
		Decisions []decision.Record `json:"decisions"`
	}
	body, _ = get("/decisions")
	if err := json.Unmarshal([]byte(body), &ds); err != nil || ds.Schema != decision.Schema || len(ds.Decisions) != 0 {
		t.Fatalf("/decisions without records %q: %v", body, err)
	}
	recs := []decision.Record{
		{Round: 1, T: 0.5, Policy: "fifo", Outcome: decision.Round, BlockedBySeq: -1, Free: 2, FreeRanks: "6-7", Pending: 1},
		{Round: 1, T: 0.5, Policy: "fifo", Job: "b", Seq: 1, Outcome: decision.Skip, Reason: decision.InsufficientRanks,
			BlockedBy: "a", BlockedBySeq: 0, Width: 4, Wait: 0.25, Submit: 0.25},
	}
	l.Publish(&Frame{Now: 2, Reg: NewRegistry().Snapshot(), Decisions: recs})
	body, _ = get("/decisions")
	if err := json.Unmarshal([]byte(body), &ds); err != nil || ds.Schema != "repro.decisions.v2" || !reflect.DeepEqual(ds.Decisions, recs) {
		t.Fatalf("/decisions %q: %+v, %v", body, ds, err)
	}
}

func TestRenderDashboard(t *testing.T) {
	l := NewLive()
	if got := RenderDashboard(l); !strings.Contains(got, "waiting for first frame") {
		t.Fatalf("placeholder %q", got)
	}
	publishFrame(l, 1.0, 3, 4)
	publishFrame(l, 2.5, 0, 8)
	out := RenderDashboard(l)
	for _, want := range []string{
		"frame 2",
		"t=2.500s",
		"done 1", "running 1",
		"ranks 8/8 busy",
		"queue depth",
		"queue wait", // quantile tile from the snapshot histogram
		"ost read lat",
		"3 osts",
		"memo  hits 2  misses 1", // memo tile from memo_* gauges
		"hit-rate 66.7%",
		"slo  [ok  ] wait",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	// A fired rule renders FAIL.
	f := l.Latest()
	l.Publish(&Frame{Now: 3, RanksTotal: 8, Reg: f.Reg,
		SLO: []SLOStatus{{Name: "wait", Expr: "x<1", OK: false, Valid: true, Value: 9, Bound: 1, At: 3}}})
	if out := RenderDashboard(l); !strings.Contains(out, "[FAIL] wait") {
		t.Fatalf("no FAIL tile:\n%s", out)
	}
}

func TestTracerTelemetryAccessors(t *testing.T) {
	var nilT *Tracer
	nilT.SetSink(&memSink{})
	nilT.SetLive(NewLive())
	nilT.SetSLO(NewSLO())
	if nilT.Live() != nil || nilT.SLOEngine() != nil {
		t.Fatal("nil tracer returned telemetry components")
	}
	tr := New()
	l, s := NewLive(), NewSLO()
	tr.SetLive(l)
	tr.SetSLO(s)
	if tr.Live() != l || tr.SLOEngine() != s {
		t.Fatal("accessors do not round-trip")
	}
}
