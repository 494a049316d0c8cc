package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Registry is a typed metrics store: counter, gauge, and histogram families
// keyed by name (vec.go). Get-or-create accessors return nil-safe handles;
// Dump renders a stable, sorted text report. A nil *Registry no-ops
// everywhere.
type Registry struct {
	counters map[string]*CounterVec
	gauges   map[string]*GaugeVec
	hists    map[string]*HistogramVec
	labelCap int // series per family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*CounterVec),
		gauges:   make(map[string]*GaugeVec),
		hists:    make(map[string]*HistogramVec),
		labelCap: DefaultLabelCap,
	}
}

// Counter is a monotonically growing sum.
type Counter struct{ v float64 }

// Add accumulates d (no-op on nil).
func (c *Counter) Add(d float64) {
	if c != nil {
		c.v += d
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Set replaces the running total (no-op on nil). It exists for mirroring
// totals accumulated outside the registry (pfs byte counts, fabric message
// counts, memo stats) into it at telemetry publish points: the source is
// monotone, so the counter still never goes backwards.
func (c *Counter) Set(v float64) {
	if c != nil {
		c.v = v
	}
}

// Value returns the current sum (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins metric.
type Gauge struct{ v float64 }

// Set replaces the value (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// DefBuckets are the default histogram bucket upper bounds, spanning
// microseconds to kiloseconds of virtual time (and small byte counts).
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1000}

// Histogram accumulates observations into cumulative-style buckets.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []int64   // len(bounds)+1
	n      int64
	sum    float64
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.n++
	h.sum += v
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the mean observation (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile estimates the q-quantile (q clamped to [0, 1]) from the bucket
// counts, Prometheus-style: the target rank q*Count is located in its
// cumulative bucket and the value is linearly interpolated between the
// bucket's lower and upper bound (the first bucket interpolates up from 0,
// which is exact for the non-negative durations and sizes stored here).
//
// Sentinels and edge cases, pinned by tests:
//   - nil or empty histogram: returns NaN — "no data" is distinct from any
//     real observation, and SLO rules skip NaN rather than fire on it.
//   - single-sample histogram: every q interpolates inside the one occupied
//     bucket, so Quantile(q) = lower + q*(upper-lower) of that bucket — an
//     estimate bounded by the bucket, not the exact observed value (bucket
//     counts are all a histogram retains).
//   - rank falls in the implicit +Inf bucket: returns the largest finite
//     bound (the estimate saturates, as in Prometheus).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	var cum float64
	for i, cnt := range h.counts {
		prev := cum
		cum += float64(cnt)
		if cnt == 0 || cum < rank {
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1] // +Inf bucket: saturate
		}
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		}
		upper := h.bounds[i]
		frac := (rank - prev) / float64(cnt)
		if rank == 0 {
			frac = 0
		}
		return lower + frac*(upper-lower)
	}
	return h.bounds[len(h.bounds)-1]
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return family(r, r.counters, "counter", name, nil, nil).With()
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return family(r, r.gauges, "gauge", name, nil, nil).With()
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket bounds (DefBuckets when none are supplied). Bounds are fixed
// at creation; later calls ignore the argument.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	return family(r, r.hists, "histogram", name, bounds, nil).With()
}

// CounterValue looks up a counter by name without creating it.
func (r *Registry) CounterValue(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	c := find(r.counters, name, false, nil)
	return c.Value(), c != nil
}

// GaugeValue looks up a gauge by name without creating it.
func (r *Registry) GaugeValue(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	g := find(r.gauges, name, false, nil)
	return g.Value(), g != nil
}

// FindHistogram looks up a histogram by name without creating it (nil when
// absent), so read-only consumers (SLO rules) never pollute the registry with
// empty series.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return find(r.hists, name, false, nil)
}

// kindOf names the kind that holds a family called name ("" when none does).
func (r *Registry) kindOf(name string) string {
	switch {
	case r.counters[name] != nil:
		return "counter"
	case r.gauges[name] != nil:
		return "gauge"
	case r.hists[name] != nil:
		return "histogram"
	}
	return ""
}

// eachSeries is Dump's walk: counters, then gauges, then histograms;
// families sorted by name within a kind, plain and labeled in one namespace;
// each family's series sorted by their canonical label rendering (a labeled
// family nobody has called With on has none). m is a *Counter, *Gauge or
// *Histogram and labels is "" for a plain metric.
func (r *Registry) eachSeries(series func(kind, name, labels string, m any)) {
	walkKind(r.counters, "counter", series)
	walkKind(r.gauges, "gauge", series)
	walkKind(r.hists, "histogram", series)
}

func walkKind[M metric](fams map[string]*Vec[M], kind string, series func(kind, name, labels string, m any)) {
	for _, name := range sortedKeys(fams) {
		f := fams[name]
		for _, lk := range sortedKeys(f.series) {
			series(kind, name, lk, f.series[lk])
		}
	}
}

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Dump renders every metric as stable sorted text: counters, then gauges,
// then histograms, each section sorted by name, with a labeled family's
// series at their family name (one `name{k="v"}` line per series, label sets
// sorted). Deterministic byte-for-byte given the same run.
func (r *Registry) Dump() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("# obs metrics dump (deterministic)\n")
	r.eachSeries(func(kind, name, labels string, m any) {
		if labels != "" {
			name += "{" + labels + "}"
		}
		switch m := m.(type) {
		case *Histogram:
			fmt.Fprintf(&b, "histogram %s count %d sum %s mean %s buckets", name, m.n, fnum(m.sum), fnum(m.Mean()))
			for i, bound := range m.bounds {
				fmt.Fprintf(&b, " le=%s:%d", fnum(bound), m.counts[i])
			}
			fmt.Fprintf(&b, " le=+Inf:%d\n", m.counts[len(m.bounds)])
		case scalar:
			fmt.Fprintf(&b, "%s %s %s\n", kind, name, fnum(m.Value()))
		}
	})
	return b.String()
}

// scalar is what a counter and a gauge render alike: one value.
type scalar interface{ Value() float64 }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
