package obs

import (
	"math"
	"testing"
)

func TestCounterSetIsIdempotentMirror(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pfs_read_bytes")
	c.Set(100)
	c.Set(100) // re-mirroring the same total must not double count
	c.Set(250)
	if v := c.Value(); v != 250 {
		t.Fatalf("value %g, want 250", v)
	}
	var nilC *Counter
	nilC.Set(1) // nil-safe
}

func TestQuantileEmptyIsNaN(t *testing.T) {
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Fatal("nil histogram quantile not NaN")
	}
	h := NewRegistry().Histogram("h")
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile not NaN")
	}
}

func TestQuantileSingleSampleInterpolatesWithinBucket(t *testing.T) {
	// One observation of 0.5 lands in the (0.1, 1] bucket: every quantile
	// interpolates inside that bucket, q=0 at the lower bound, q=1 at the
	// upper — the documented single-sample behavior.
	h := NewRegistry().Histogram("h", 0.1, 1, 10)
	h.Observe(0.5)
	if got := h.Quantile(0); got != 0.1 {
		t.Fatalf("q0 = %g, want 0.1", got)
	}
	if got := h.Quantile(1); got != 1 {
		t.Fatalf("q1 = %g, want 1", got)
	}
	if got := h.Quantile(0.5); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("q0.5 = %g, want 0.55", got)
	}
}

func TestQuantileInterpolatesAndClamps(t *testing.T) {
	h := NewRegistry().Histogram("h", 1, 2, 4)
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // all in (0,1]
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.5) // all in (1,2]
	}
	// rank 10 = boundary of first bucket; q=0.5 → top of bucket 1.
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("median %g, want 1", got)
	}
	// q=0.75 → rank 15, 5 into the 10-count second bucket → 1.5.
	if got := h.Quantile(0.75); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("p75 %g, want 1.5", got)
	}
	// q outside [0,1] clamps.
	if h.Quantile(-3) != h.Quantile(0) || h.Quantile(7) != h.Quantile(1) {
		t.Fatal("q not clamped")
	}
}

func TestQuantileInfBucketSaturates(t *testing.T) {
	h := NewRegistry().Histogram("h", 1, 10)
	h.Observe(100) // lands in +Inf bucket
	if got := h.Quantile(0.99); got != 10 {
		t.Fatalf("quantile in +Inf bucket %g, want largest finite bound 10", got)
	}
}

func TestRegistryLookupAccessorsDoNotCreate(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.CounterValue("missing"); ok {
		t.Fatal("missing counter found")
	}
	if _, ok := r.GaugeValue("missing"); ok {
		t.Fatal("missing gauge found")
	}
	if r.FindHistogram("missing") != nil {
		t.Fatal("missing histogram found")
	}
	if len(r.counters)+len(r.gauges)+len(r.hists) != 0 {
		t.Fatal("lookup created series")
	}
	r.Counter("c").Add(2)
	r.Gauge("g").Set(3)
	if v, ok := r.CounterValue("c"); !ok || v != 2 {
		t.Fatalf("counter lookup %g %v", v, ok)
	}
	if v, ok := r.GaugeValue("g"); !ok || v != 3 {
		t.Fatalf("gauge lookup %g %v", v, ok)
	}
	var nilR *Registry
	if _, ok := nilR.CounterValue("x"); ok {
		t.Fatal("nil registry counter lookup")
	}
}
