package obs

import (
	"math"
	"strings"
	"testing"
)

func TestParseSLORuleForms(t *testing.T) {
	cases := []struct {
		in       string
		name     string
		kind     ruleKind
		metric   string
		q, bound float64
		op       string
	}{
		{"cluster_jobs_dropped<1", "cluster_jobs_dropped", ruleValue, "cluster_jobs_dropped", 0, 1, "<"},
		{"wait=p99(cluster_queue_wait_seconds)<60", "wait", ruleQuantile, "cluster_queue_wait_seconds", 0.99, 60, "<"},
		{"p50(h)>=0.5", "p50(h)", ruleQuantile, "h", 0.5, 0.5, ">="},
		{"p999(h)<1", "p999(h)", ruleQuantile, "h", 0.999, 1, "<"},
		{"drop=ratio(a, b)<=0.01", "drop", ruleRatio, "a", 0, 0.01, "<="},
		{"straggle=spread(pfs_read_seconds)<100", "straggle", ruleSpread, "pfs_read_seconds", 0, 100, "<"},
		{"util>50", "util", ruleValue, "util", 0, 50, ">"},
	}
	for _, c := range cases {
		r, err := ParseSLORule(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if r.Name != c.name || r.kind != c.kind || r.metric != c.metric ||
			r.q != c.q || r.bound != c.bound || r.op != c.op {
			t.Fatalf("%q parsed %+v", c.in, r)
		}
	}
	if r := MustParseSLORule("drop=ratio(a,b)<=0.01"); r.metric2 != "b" {
		t.Fatalf("ratio denominator %q", r.metric2)
	}
}

func TestParseSLORuleRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"", "noop", "p99(h)", "pxx(h)<1", "ratio(a)<1", "ratio(a,b,c)<1",
		"p99(h)<abc", "spread()<1", "a b<1", "<1",
	} {
		if _, err := ParseSLORule(in); err == nil {
			t.Fatalf("%q accepted", in)
		}
	}
}

func TestSLOEvalFiresOnceAndLatches(t *testing.T) {
	tr := New()
	sink := &memSink{}
	tr.AddSink(sink)
	s := NewSLO(MustParseSLORule("depth=cluster_queue_depth_max<5"))
	tr.SetSLO(s)

	g := tr.Metrics().Gauge("cluster_queue_depth_max")
	g.Set(3)
	s.Eval(tr, 1.0) // holds
	if len(s.Violations()) != 0 {
		t.Fatalf("violated while holding: %+v", s.Violations())
	}

	g.Set(9)
	s.Eval(tr, 2.0) // fires
	s.Eval(tr, 3.0) // latched: must not fire again
	v := s.Violations()
	if len(v) != 1 || v[0].At != 2.0 || v[0].Value != 9 || v[0].Rule.Name != "depth" {
		t.Fatalf("violations %+v", v)
	}
	if !strings.Contains(v[0].String(), "depth") {
		t.Fatalf("violation string %q", v[0])
	}
	// Exactly one alert event, carrying expr/value/threshold attrs.
	var alerts []Event
	for _, e := range sink.events {
		if e.E == "alert" {
			alerts = append(alerts, e)
		}
	}
	if len(alerts) != 1 || alerts[0].Name != "depth" || alerts[0].T != 2.0 {
		t.Fatalf("alerts %+v", alerts)
	}
	keys := map[string]string{}
	for _, a := range alerts[0].Attrs {
		keys[a.Key] = a.Val
	}
	if keys["value"] != "9" || keys["threshold"] != "5" {
		t.Fatalf("alert attrs %v", keys)
	}
}

func TestSLOSkipsMissingAndEmptySeries(t *testing.T) {
	tr := New()
	sink := &memSink{}
	tr.AddSink(sink)
	s := NewSLO(
		MustParseSLORule("a=missing_metric<1"),
		MustParseSLORule("b=p99(missing_hist)<1"),
		MustParseSLORule("c=ratio(x,zero_denominator)<0.5"),
		MustParseSLORule("d=spread(empty_hist)<2"),
	)
	tr.Metrics().Gauge("zero_denominator").Set(0)
	tr.Metrics().Histogram("empty_hist")
	s.Eval(tr, 1.0)
	if n := len(s.Violations()); n != 0 {
		t.Fatalf("%d violations on missing series", n)
	}
	if len(sink.events) != 0 {
		t.Fatalf("alerts on missing series: %+v", sink.events)
	}
}

// TestSLORulesSharingANameLatchApart: the latch is per rule, not per name.
// Two rules given one name, and two unnamed rules over one expression (which
// ParseSLORule names by that expression), each fire when their own bound
// breaks — at different evaluations here — and each is a violation and an
// alert of its own.
func TestSLORulesSharingANameLatchApart(t *testing.T) {
	for _, pair := range [][2]string{
		{"depth=cluster_queue_depth_max<10", "depth=cluster_queue_depth_max<5"},
		{"p99(cluster_queue_wait_seconds)<2", "p99(cluster_queue_wait_seconds)<0.5"},
	} {
		tr := New()
		sink := &memSink{}
		tr.AddSink(sink)
		loose, tight := MustParseSLORule(pair[0]), MustParseSLORule(pair[1])
		if loose.Name != tight.Name {
			t.Fatalf("%q and %q are named %q and %q, want one name", pair[0], pair[1], loose.Name, tight.Name)
		}
		s := NewSLO(loose, tight)
		tr.SetSLO(s)
		g := tr.Metrics().Gauge("cluster_queue_depth_max")
		h := tr.Metrics().Histogram("cluster_queue_wait_seconds", 0.5, 1, 2, 4)
		g.Set(7) // breaks only the tight depth bound
		h.Observe(0.75)
		s.Eval(tr, 1)
		g.Set(12) // now the loose one too
		for i := 0; i < 10; i++ {
			h.Observe(3)
		}
		s.Eval(tr, 2)
		s.Eval(tr, 3)
		v := s.Violations()
		if len(v) != 2 || v[0].Rule.Expr != pair[1] || v[0].At != 1 || v[1].Rule.Expr != pair[0] || v[1].At != 2 {
			t.Fatalf("%s: violations %+v, want the tight rule at t=1, then the loose one at t=2", pair[0], v)
		}
		var alerts []string
		for _, e := range sink.events {
			if e.E == "alert" {
				alerts = append(alerts, e.Name+"@"+fnum(e.T)+" "+e.Attrs[0].Val)
			}
		}
		want := []string{loose.Name + "@1 " + pair[1], loose.Name + "@2 " + pair[0]}
		if strings.Join(alerts, "|") != strings.Join(want, "|") {
			t.Fatalf("alerts %q, want %q", alerts, want)
		}
	}
}

func TestSLORatioAndSpread(t *testing.T) {
	tr := New()
	m := tr.Metrics()
	m.Counter("dropped").Set(2)
	m.Counter("submitted").Set(10)
	h := m.Histogram("lat", 0.001, 0.01, 0.1, 1, 10)
	for i := 0; i < 97; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 3; i++ {
		h.Observe(5) // straggling tail stretches p99 far past p50
	}

	s := NewSLO(
		MustParseSLORule("drop=ratio(dropped,submitted)<=0.01"),
		MustParseSLORule("straggle=spread(lat)<10"),
	)
	s.Eval(tr, 1.0)
	names := map[string]bool{}
	for _, v := range s.Violations() {
		names[v.Rule.Name] = true
	}
	if !names["drop"] || !names["straggle"] {
		t.Fatalf("violations %v, want both drop (0.2 > 0.01) and straggle", names)
	}
}

func TestDefaultSLORulesHoldOnHealthyRun(t *testing.T) {
	tr := New()
	m := tr.Metrics()
	m.Counter("cluster_jobs_submitted").Set(10)
	m.Histogram("cluster_queue_wait_seconds").Observe(0.5)
	h := m.Histogram("pfs_read_seconds")
	h.Observe(0.004)
	h.Observe(0.005)
	s := NewSLO() // default rule set
	if len(s.Rules()) < 3 {
		t.Fatalf("%d default rules", len(s.Rules()))
	}
	s.Eval(tr, 1.0)
	if v := s.Violations(); len(v) != 0 {
		t.Fatalf("default rules fired on healthy metrics: %+v", v)
	}
}

func TestSLONilEngineIsSafe(t *testing.T) {
	var s *SLO
	s.Eval(New(), 1)
	if s.Violations() != nil || s.Rules() != nil {
		t.Fatal("nil engine returned data")
	}
}

func TestSpreadNeedsNonZeroMedian(t *testing.T) {
	tr := New()
	h := tr.Metrics().Histogram("h", 1, 10)
	h.Observe(0.5) // p50 interpolates inside (0,1], nonzero
	r := MustParseSLORule("spread(h)<100")
	if v, ok := r.value(tr.Metrics()); !ok || math.IsNaN(v) {
		t.Fatalf("spread on single-sample histogram: %g %v", v, ok)
	}
}

func TestTracerTelemetryAccessors(t *testing.T) {
	var nilT *Tracer
	nilT.AddSink(&memSink{})
	nilT.SetSLO(NewSLO())
	ser := NewSeriesSink(&strings.Builder{})
	defer ser.Close()
	nilT.SetSeries(ser)
	if nilT.SLOEngine() != nil || nilT.Series() != nil {
		t.Fatal("nil tracer returned telemetry components")
	}
	tr := New()
	s := NewSLO()
	tr.SetSLO(s)
	tr.SetSeries(ser)
	if tr.SLOEngine() != s || tr.Series() != ser {
		t.Fatal("accessors do not round-trip")
	}
}
