package cluster

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// This file is the cluster's dimensional telemetry: labeled metric families
// (per-tenant/per-SLO-class scheduling outcomes, per-OST and per-NIC busy
// time) and the per-round time-series sampling behind -series. Handles into
// the labeled families are created once and cached — per-admission and
// per-publish paths never rebuild label keys — matching the registry's
// cached-handle zero-alloc contract.

// labelOrDefault maps the empty dimension value (direct submissions, jobs
// with no SLO class) onto the "default" label.
func labelOrDefault(v string) string {
	if v == "" {
		return "default"
	}
	return v
}

// tenantMetrics is the cached handle bundle for one (tenant, class) pair.
type tenantMetrics struct {
	wait     *obs.Histogram
	admitted *obs.Counter
	dropped  *obs.Counter
	memoHits *obs.Counter
}

// tenantMx returns jr's cached (tenant, class) handle bundle, creating it on
// the pair's first scheduling event. Only called under c.obs != nil.
func (c *Cluster) tenantMx(jr *JobResult) *tenantMetrics {
	tn, cl := labelOrDefault(jr.Tenant()), labelOrDefault(jr.Job.Class)
	key := tn + "\x00" + cl
	mx := c.tenantMxCache[key]
	if mx == nil {
		m := c.obs.Metrics()
		mx = &tenantMetrics{
			wait:     m.HistogramVec("cluster_tenant_queue_wait_seconds", nil, "tenant", "class").With(tn, cl),
			admitted: m.CounterVec("cluster_tenant_jobs_admitted", "tenant", "class").With(tn, cl),
			dropped:  m.CounterVec("cluster_tenant_jobs_dropped", "tenant", "class").With(tn, cl),
			memoHits: m.CounterVec("cluster_tenant_memo_hits", "tenant", "class").With(tn, cl),
		}
		if c.tenantMxCache == nil {
			c.tenantMxCache = make(map[string]*tenantMetrics)
		}
		c.tenantMxCache[key] = mx
	}
	return mx
}

// queuedSpanAttrs builds the "queued" span's attribute list: the job name
// plus the tenant/class dimensions when present, so offline analyzers can
// attribute waits without a side table.
func queuedSpanAttrs(jr *JobResult) []obs.Attr {
	attrs := make([]obs.Attr, 1, 3)
	attrs[0] = obs.S("job", jr.Job.Name)
	if tn := jr.Tenant(); tn != "" {
		attrs = append(attrs, obs.S("tenant", tn))
	}
	if jr.Job.Class != "" {
		attrs = append(attrs, obs.S("class", jr.Job.Class))
	}
	return attrs
}

// memoGauges is the cached handle set for the labeled memo_events family.
type memoGauges struct {
	hits, waiters, coalesced, misses *obs.Gauge
	bytesSaved, evictions            *obs.Gauge
}

// mirrorLabeled syncs the labeled hardware and memo families from their
// sources; called from mirrorTotals, so every publish point and finishObs
// see it. Handles are built on first call and reused, and the hardware
// readings go through the cluster's scratch, so a publish allocates nothing.
func (c *Cluster) mirrorLabeled(m *obs.Registry) {
	c.hwOST = c.fs.AppendOSTBusyTimes(c.hwOST[:0])
	if c.ostBusyG == nil {
		bv := m.GaugeVec("pfs_ost_busy_seconds", "ost")
		lv := m.GaugeVec("pfs_ost_read_latency_seconds", "ost")
		c.ostBusyG = make([]*obs.Gauge, len(c.hwOST))
		c.ostLatG = make([]*obs.Gauge, len(c.hwOST))
		for i := range c.hwOST {
			id := strconv.Itoa(i)
			c.ostBusyG[i] = bv.With(id)
			c.ostLatG[i] = lv.With(id)
		}
	}
	for i, b := range c.hwOST {
		c.ostBusyG[i].Set(b)
	}
	c.hwOST = c.fs.AppendOSTReadLatency(c.hwOST[:0])
	for i, l := range c.hwOST {
		c.ostLatG[i].Set(l)
	}
	c.hwTx, c.hwRx = c.w.Net().AppendNICBusyTimes(c.hwTx[:0], c.hwRx[:0])
	if c.nicTxG == nil {
		nv := m.GaugeVec("fabric_nic_busy_seconds", "node", "dir")
		c.nicTxG = make([]*obs.Gauge, len(c.hwTx))
		c.nicRxG = make([]*obs.Gauge, len(c.hwRx))
		for i := range c.hwTx {
			id := strconv.Itoa(i)
			c.nicTxG[i] = nv.With(id, "tx")
			c.nicRxG[i] = nv.With(id, "rx")
		}
	}
	for i, b := range c.hwTx {
		c.nicTxG[i].Set(b)
	}
	for i, b := range c.hwRx {
		c.nicRxG[i].Set(b)
	}
	if c.memo != nil {
		if c.memoG == nil {
			v := m.GaugeVec("memo_events", "kind")
			c.memoG = &memoGauges{
				hits: v.With("hits"), waiters: v.With("waiters"),
				coalesced: v.With("coalesced"), misses: v.With("misses"),
				bytesSaved: v.With("bytes_saved"), evictions: v.With("evictions"),
			}
		}
		s := c.memo.stats
		c.memoG.hits.Set(float64(s.Hits))
		c.memoG.waiters.Set(float64(s.Waiters))
		c.memoG.coalesced.Set(float64(s.Coalesced))
		c.memoG.misses.Set(float64(s.Misses))
		c.memoG.bytesSaved.Set(float64(s.BytesSaved))
		c.memoG.evictions.Set(float64(s.Evictions))
	}
}

// ---------------------------------------------------------------------------
// Per-class sliding wait windows + round-aligned series sampling (-series)

// classWinCap bounds each class's sliding window of recent admission waits:
// large enough for a stable p99, small and fixed so series sampling stays
// O(classes) per round regardless of run length.
const classWinCap = 128

// waitWindow is a fixed-capacity ring of one class's most recent admission
// waits, with its summary as of the last wait that entered it.
type waitWindow struct {
	class    string
	buf      []float64
	next     int
	n        int
	tmp      []float64 // reused sort scratch for summaries
	stale    bool      // a wait entered since p50/p99 were taken
	p50, p99 float64
}

func (w *waitWindow) add(v float64) {
	if w.buf == nil {
		w.buf = make([]float64, classWinCap)
	}
	w.buf[w.next] = v
	w.next = (w.next + 1) % classWinCap
	if w.n < classWinCap {
		w.n++
	}
	w.stale = true
}

// summary returns the window's size and nearest-rank p50/p99, sorting the
// window only when a wait entered it since the last call.
func (w *waitWindow) summary() (n int, p50, p99 float64) {
	if w.n == 0 {
		return 0, 0, 0
	}
	if w.stale {
		w.tmp = append(w.tmp[:0], w.buf[:w.n]...)
		sort.Float64s(w.tmp)
		w.p50, w.p99, w.stale = obs.NearestRank(w.tmp, 0.50), obs.NearestRank(w.tmp, 0.99), false
	}
	return w.n, w.p50, w.p99
}

// recordClassWait feeds one admission wait into its class's sliding window.
// Only called when a series sink is installed — the windows exist solely for
// series sampling.
func (c *Cluster) recordClassWait(class string, wait float64) {
	cl := labelOrDefault(class)
	i, ok := slices.BinarySearchFunc(c.classWin, cl, func(w *waitWindow, cl string) int {
		return strings.Compare(w.class, cl)
	})
	if !ok {
		c.classWin = slices.Insert(c.classWin, i, &waitWindow{class: cl})
	}
	c.classWin[i].add(wait)
}

// classWaits renders the per-class window summaries sorted by class name —
// the deterministic Classes section of a series point — into the cluster's
// scratch, valid until the next call.
func (c *Cluster) classWaits() []obs.ClassWait {
	out := c.seriesClasses[:0]
	for _, w := range c.classWin {
		n, p50, p99 := w.summary()
		out = append(out, obs.ClassWait{Class: w.class, N: n, P50: p50, P99: p99})
	}
	c.seriesClasses = out
	return out
}

// sampleSeries records one round-aligned point through the tracer, which
// hands it to the series sink and to every sink that reads points. The point
// is built in the cluster's scratch: a sink reads it only during the call.
func (c *Cluster) sampleSeries(now float64, queueDepth, ranksBusy int) {
	c.seriesOST = c.fs.AppendOSTBusyTimes(c.seriesOST[:0])
	c.obs.Sample(obs.SeriesPoint{
		Round:      c.decRound,
		T:          now,
		QueueDepth: queueDepth,
		RanksBusy:  ranksBusy,
		RanksTotal: c.spec.Ranks,
		OSTBusy:    c.seriesOST,
		Classes:    c.classWaits(),
	})
}
