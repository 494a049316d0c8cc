package obs

import (
	"strings"
	"testing"
)

func TestVecCanonicalSortedLabelRendering(t *testing.T) {
	r := NewRegistry()
	// Keys declared out of sorted order; values passed in declaration order.
	r.CounterVec("jobs", "tenant", "class").With("acme", "batch").Add(3)
	dump := r.Dump()
	want := `counter jobs{class="batch",tenant="acme"} 3`
	if !strings.Contains(dump, want) {
		t.Fatalf("dump missing %q:\n%s", want, dump)
	}
	if v, ok := r.CounterVecValue("jobs", "acme", "batch"); !ok || v != 3 {
		t.Fatalf("CounterVecValue = %v, %v", v, ok)
	}
}

func TestVecCardinalityCapDropsIntoOverflowCounter(t *testing.T) {
	r := NewRegistry()
	r.SetLabelCap(2)
	v := r.CounterVec("per_client", "client")
	a, b := v.With("a"), v.With("b")
	if a == nil || b == nil {
		t.Fatal("children under the cap must be real")
	}
	c := v.With("c")
	if c != nil {
		t.Fatal("over-cap label set must return the nil handle")
	}
	c.Inc() // must no-op, not panic
	if got, _ := r.CounterValue(LabelsDroppedCounter); got != 1 {
		t.Fatalf("overflow counter = %v, want 1", got)
	}
	// Existing label sets stay live at the cap; every dropped access charges
	// the overflow counter again.
	if v.With("a") != a {
		t.Fatal("existing child lost after cap hit")
	}
	v.With("c")
	v.With("d")
	if got, _ := r.CounterValue(LabelsDroppedCounter); got != 3 {
		t.Fatalf("overflow counter = %v, want 3", got)
	}
	// Gauge and histogram families share the same cap and counter.
	r.GaugeVec("g", "k").With("1")
	r.GaugeVec("g", "k").With("2")
	if r.GaugeVec("g", "k").With("3") != nil {
		t.Fatal("gauge vec ignored the cap")
	}
	hv := r.HistogramVec("h", nil, "k")
	hv.With("1")
	hv.With("2")
	if hv.With("3") != nil {
		t.Fatal("histogram vec ignored the cap")
	}
	if got, _ := r.CounterValue(LabelsDroppedCounter); got != 5 {
		t.Fatalf("overflow counter = %v, want 5", got)
	}
}

func TestVecDumpDeterministicAcrossInsertionOrders(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		v := r.CounterVec("m", "tenant")
		for i, tn := range order {
			v.With(tn).Add(float64(i + 1))
		}
		g := r.GaugeVec("busy", "ost")
		for _, tn := range order {
			g.With(tn).Set(7)
		}
		return r
	}
	a := build([]string{"x", "y", "z"})
	b := build([]string{"z", "x", "y"})
	// Same values regardless of insertion order.
	av := a.CounterVec("m", "tenant")
	bv := b.CounterVec("m", "tenant")
	for tn, want := range map[string]float64{"x": 1, "y": 2, "z": 3} {
		if got := av.With(tn).Value(); got != want {
			t.Fatalf("a[%s] = %v, want %v", tn, got, want)
		}
		_ = bv
	}
	// Values differ (insertion order changed Add arguments), but the family
	// and label-set ordering must match; rebuild with identical values to
	// check byte equality.
	c := build([]string{"x", "y", "z"})
	d := build([]string{"x", "y", "z"})
	if c.Dump() != d.Dump() {
		t.Fatal("identical registries dumped different text")
	}
}

func TestVecCachedHandleZeroAlloc(t *testing.T) {
	r := NewRegistry()
	ctr := r.CounterVec("c", "k").With("v")
	g := r.GaugeVec("g", "k").With("v")
	h := r.HistogramVec("h", nil, "k").With("v")
	if n := testing.AllocsPerRun(100, func() {
		ctr.Add(1)
		g.Set(2)
		h.Observe(0.5)
	}); n != 0 {
		t.Fatalf("cached labeled handles allocated %v/op, want 0", n)
	}
	// Nil handles — disabled registry or capped family — are free too.
	var nilReg *Registry
	nc := nilReg.CounterVec("c", "k").With("v")
	r2 := NewRegistry()
	r2.SetLabelCap(1)
	r2.CounterVec("c", "k").With("kept")
	dropped := r2.CounterVec("c", "k").With("dropped")
	if nc != nil || dropped != nil {
		t.Fatal("expected nil handles")
	}
	if n := testing.AllocsPerRun(100, func() {
		nc.Add(1)
		dropped.Inc()
	}); n != 0 {
		t.Fatalf("nil labeled handles allocated %v/op, want 0", n)
	}
}

func TestVecLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c", "k").With("a\"b\\c\nd").Inc()
	if dump := r.Dump(); !strings.Contains(dump, `counter c{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", dump)
	}
}

func TestVecMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("taken")
	mustPanic("plain-name collision", func() { r.CounterVec("taken", "k") })
	r.CounterVec("v", "a", "b")
	mustPanic("key mismatch", func() { r.CounterVec("v", "a", "c") })
	mustPanic("kind collision", func() { r.GaugeVec("v", "a") })
	mustPanic("wrong arity", func() { r.CounterVec("v", "a", "b").With("only-one") })
	mustPanic("zero keys", func() { r.CounterVec("nolabels") })
	mustPanic("duplicate keys", func() { r.CounterVec("dup", "a", "a") })
}

func TestNilRegistryVecsNoOp(t *testing.T) {
	var r *Registry
	r.CounterVec("c", "k").With("v").Add(1)
	r.GaugeVec("g", "k").With("v").Set(1)
	r.HistogramVec("h", nil, "k").With("v").Observe(1)
	r.SetLabelCap(10)
	if _, ok := r.CounterVecValue("c", "v"); ok {
		t.Fatal("nil registry returned a value")
	}
	if _, ok := r.GaugeVecValue("g", "v"); ok {
		t.Fatal("nil registry returned a value")
	}
}
