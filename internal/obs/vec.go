package obs

import (
	"fmt"
	"sort"
	"strings"
)

// metric is the set of series types a family can hold.
type metric interface{ Counter | Gauge | Histogram }

// Vec is a metric family: one name, one kind, a fixed set of label keys, and
// one series per combination of label values — per-tenant queue wait, per-OST
// busy time, per-NIC load. It is the only thing a Registry stores: a plain
// metric (Registry.Counter and friends) is the family with no label keys,
// whose single series has the empty label set.
//
// Design rules, pinned by tests:
//
//   - Deterministic rendering. Label keys are sorted once at family creation
//     and every series is keyed by its canonical `k1="v1",k2="v2"` rendering,
//     so Dump's output is a pure function of the recorded values —
//     byte-identical across identical runs regardless of With() call order.
//   - Hard cardinality cap. A registry-wide per-family cap (SetLabelCap,
//     default DefaultLabelCap) bounds the series count; once a family is
//     full, With() for a NEW label set returns a nil handle (whose methods
//     no-op) and increments the obs_labels_dropped_total overflow counter —
//     an unbounded label value (job names, client ids) degrades telemetry
//     instead of memory.
//   - Cached handles on hot paths. With() builds the canonical key, so it
//     allocates; callers on per-request paths must call it once and retain
//     the returned handle (the pfs client and cluster scheduler do). The
//     retained handle's Add/Set/Observe are allocation-free, and the nil
//     handle from a nil registry or a capped family is too.
type Vec[M metric] struct {
	name   string
	keys   []string  // label keys, sorted; none for a plain metric
	perm   []int     // keys[i] was caller position perm[i]
	bounds []float64 // bucket bounds every series of a histogram family shares
	reg    *Registry
	series map[string]*M // by canonical label rendering ("" for a plain metric)
}

// The three kinds of family.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

// DefaultLabelCap is the per-family series cap a fresh registry starts with.
// It comfortably covers the static hardware dimensions (156 OSTs, one NIC
// pair per node) while bounding unbounded ones (tenants at million-user
// scale).
const DefaultLabelCap = 1024

// LabelsDroppedCounter is the overflow counter incremented once per With()
// call that lands on a full family's unseen label set.
const LabelsDroppedCounter = "obs_labels_dropped_total"

// family returns the named family of one kind (fams is that kind's map in r),
// creating it on first use. A name means one thing: asking for it again with
// other label keys — a plain metric where a labeled family stands, or the
// reverse — panics, and so does declaring a labeled family under a name any
// kind already uses. (Plain metrics of different kinds may share a name; that
// has never been checked.)
func family[M metric](r *Registry, fams map[string]*Vec[M], kind, name string, bounds []float64, keys []string) *Vec[M] {
	if f := fams[name]; f != nil {
		if !f.sameKeys(keys) {
			panic("obs: " + kind + " " + name + " redeclared with different label keys")
		}
		return f
	}
	if len(keys) > 0 {
		if used := r.kindOf(name); used != "" {
			panic("obs: " + kind + " vec name " + name + " already used by a " + used)
		}
	}
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	sorted := append([]string(nil), keys...)
	sort.Sort(&keyPermSort{keys: sorted, perm: perm})
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			panic("obs: " + kind + " vec " + name + " has duplicate label key " + sorted[i])
		}
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	f := &Vec[M]{name: name, keys: sorted, perm: perm, bounds: bounds, reg: r, series: make(map[string]*M)}
	if len(keys) == 0 {
		f.series[""] = f.newSeries() // a plain metric exists from its first mention, whatever the cap
	}
	fams[name] = f
	return f
}

type keyPermSort struct {
	keys []string
	perm []int
}

func (s *keyPermSort) Len() int           { return len(s.keys) }
func (s *keyPermSort) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keyPermSort) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
}

// escapeLabelValue escapes a label value as the Prometheus text format does:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labelKey renders the canonical series key `k1="v1",k2="v2"` with keys in
// sorted order. values arrive in the caller's declaration order; perm maps
// sorted key position -> caller position.
func (v *Vec[M]) labelKey(values []string) string {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: vec %s wants %d label values, got %d",
			v.name, len(v.keys), len(values)))
	}
	var b strings.Builder
	for i, k := range v.keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[v.perm[i]]))
		b.WriteByte('"')
	}
	return b.String()
}

// sameKeys reports whether the caller-order keys match this family's.
func (v *Vec[M]) sameKeys(keys []string) bool {
	if len(keys) != len(v.keys) {
		return false
	}
	for i, pos := range v.perm {
		if keys[pos] != v.keys[i] {
			return false
		}
	}
	return true
}

// newSeries returns a zero series of the family's kind.
func (v *Vec[M]) newSeries() *M {
	m := new(M)
	if h, ok := any(m).(*Histogram); ok {
		h.bounds, h.counts = v.bounds, make([]int64, len(v.bounds)+1)
	}
	return m
}

// With returns the series for the given label values (in the key order the
// family was declared with), creating it on first use. Returns a nil (no-op)
// handle when the family is at the cardinality cap, charging
// obs_labels_dropped_total. Allocates; cache the handle on hot paths.
func (v *Vec[M]) With(values ...string) *M {
	if v == nil {
		return nil
	}
	lk := v.labelKey(values)
	m := v.series[lk]
	if m == nil {
		if len(v.series) >= v.reg.labelCap {
			v.reg.Counter(LabelsDroppedCounter).Inc()
			return nil
		}
		m = v.newSeries()
		v.series[lk] = m
	}
	return m
}

// find looks one series up without creating family or series. labeled says
// which of the two lookup surfaces is asking: a plain lookup never sees a
// labeled family and the reverse, as when the two lived in separate maps.
func find[M metric](fams map[string]*Vec[M], name string, labeled bool, values []string) *M {
	f := fams[name]
	if f == nil || (len(f.keys) > 0) != labeled {
		return nil
	}
	return f.series[f.labelKey(values)]
}

// CounterVec returns the named labeled counter family, creating it on first
// use with the given label keys. The name must not collide with another
// metric, and later calls must pass the same keys.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return family(r, r.counters, "counter", name, nil, labelKeys(name, keys))
}

// GaugeVec returns the named labeled gauge family, creating it on first use.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return family(r, r.gauges, "gauge", name, nil, labelKeys(name, keys))
}

// HistogramVec returns the named labeled histogram family, creating it on
// first use with the given bucket bounds (DefBuckets when nil) and label
// keys.
func (r *Registry) HistogramVec(name string, bounds []float64, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return family(r, r.hists, "histogram", name, bounds, labelKeys(name, keys))
}

// labelKeys rejects a labeled family declared without label keys: that is
// the spelling of a plain metric, which has its own accessor.
func labelKeys(name string, keys []string) []string {
	if len(keys) == 0 {
		panic("obs: vec " + name + " needs at least one label key")
	}
	return keys
}

// SetLabelCap replaces the per-family cardinality cap (default
// DefaultLabelCap). Applies immediately to every family; lowering it below a
// family's current series count freezes that family (existing series stay
// live, new label sets are dropped).
func (r *Registry) SetLabelCap(n int) {
	if r == nil || n < 1 {
		return
	}
	r.labelCap = n
}

// CounterVecValue looks up one series' value without creating family or
// series. Values arrive in the family's declaration order.
func (r *Registry) CounterVecValue(name string, values ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	c := find(r.counters, name, true, values)
	return c.Value(), c != nil
}

// GaugeVecValue looks up one series' value without creating family or series.
func (r *Registry) GaugeVecValue(name string, values ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	g := find(r.gauges, name, true, values)
	return g.Value(), g != nil
}
