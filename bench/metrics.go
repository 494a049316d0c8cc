package main

import (
	"encoding/json"
	"math"
	"sort"
)

// Clocks. Every metric says which one it reads. Virtual numbers are what the
// modelled machine would take and repeat bit-exactly; host numbers are what
// the simulator costs and are noisy; counts come from counters the program
// exports and repeat exactly; computed numbers are derived from the others.
const (
	clockHost     = "host"
	clockVirtual  = "virtual"
	clockCount    = "count"
	clockComputed = "computed"
)

// metricDef describes one metric of the ledger.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base value by which it may worsen
	// Fastest makes the metric's value the smallest of its samples and not
	// their median (see wall_s).
	Fastest bool
	// NoSpread exempts the metric from the spread warning and the
	// "unresolved" verdict, as the driver exempts setup_s: its three samples,
	// the first of them cold, have no spread worth the name.
	NoSpread bool
}

// endToEnd is the ledger's end-to-end set, reported per workload. The first
// driverEndToEnd of them are the ones BENCHMARK.json lists as end_to_end:
// the driver's contract wants metrics that are never 0 and never read the
// same twice, which rules out the three exact ones. Those are listed per
// layer there, compared exactly by -compare, and checked inside every run.
//
// wall_s is reported as the fastest of the timed reps: the time of a rep the
// host left alone. The reps of a run do identical work, so what differs
// between them is the host, and that only ever adds time: on the 2-vCPU
// build VM other tenants slow stretches of reps, at times whole minutes, by
// up to 2x. Over six sets of ten runs of unchanged code the median of a
// run's reps had a quartile spread across runs of 5 to 46% on paper_cc, the
// first quartile of 7 to 29%, the fastest rep of 6 to 25%. For the same
// reason wall_s carries the widest bound the contract allows and not the
// issue's 10%: between two sets of ten runs half an hour apart every
// workload's level moved by 13 to 24%.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Clock: clockHost, Better: "lower", Bound: 0.25, Fastest: true},
	{Name: "setup_s", Unit: "s", Clock: clockHost, Better: "lower", Bound: 0.25, NoSpread: true},
	{Name: "alloc_mb", Unit: "MB", Clock: clockHost, Better: "lower", Bound: 0.02},
	{Name: "virtual_s", Unit: "vs", Clock: clockVirtual, Better: "lower"},
	{Name: "p99_wait_vs", Unit: "vs", Clock: clockVirtual, Better: "lower"},
	{Name: "failed_frac", Unit: "ratio", Clock: clockVirtual, Better: "lower"},
}

const driverEndToEnd = 3

// workloadSpans are the spans each workload's traced pass reports, as
// span.<workload>.<name>_s.
var workloadSpans = map[string][]string{
	"paper_cc":        {"dataset_create", "trad_leg", "cc_leg", "verify"},
	"mem_write_read":  {"make_values", "write", "read_cc", "verify"},
	"sched_backlog":   {"generate", "provision", "submit", "run", "audit", "summarize"},
	"stream_observed": {"generate", "attach", "run", "finish", "report_load", "report_build", "report_write", "off_run"},
}

// countDefs are the exact-repeat counters, with the direction an
// optimisation would move them.
var countDefs = []metricDef{
	{Name: "cc.map_elements", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "cc.subsets", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "cc.intermediate_records", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "cc.shuffle_bytes", Unit: "B", Clock: clockCount, Better: "lower"},
	{Name: "cc.raw_bytes", Unit: "B", Clock: clockCount, Better: "lower"},
	{Name: "cc.trad_virtual_s", Unit: "vs", Clock: clockVirtual, Better: "lower"},
	{Name: "cc.speedup_vs_traditional", Unit: "ratio", Clock: clockVirtual, Better: "higher"},
	{Name: "sim.skipped_wakeups", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "pfs.read_bytes", Unit: "B", Clock: clockCount, Better: "lower"},
	{Name: "pfs.write_bytes", Unit: "B", Clock: clockCount, Better: "lower"},
	{Name: "pfs.requests", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "mpi.messages", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "mpi.bytes_on_wire", Unit: "B", Clock: clockCount, Better: "lower"},
	{Name: "cluster.memo_hits", Unit: "count", Clock: clockCount, Better: "higher"},
	{Name: "cluster.memo_misses", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "cluster.memo_coalesced", Unit: "count", Clock: clockCount, Better: "higher"},
	{Name: "cluster.jobs_dropped", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "obs.events_mb", Unit: "MB", Clock: clockCount, Better: "lower"},
	{Name: "obs.event_lines", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "obs.decision_records", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "obs.series_points", Unit: "count", Clock: clockCount, Better: "lower"},
}

// hostDefs are the host-side figures of the traced rep and the ratios and
// shares computed from spans, counts and probe rates.
var hostDefs = []metricDef{
	{Name: "obs.overhead_ratio", Unit: "ratio", Clock: clockComputed, Better: "lower"},
	{Name: "obs.finish_over_run_ratio", Unit: "ratio", Clock: clockComputed, Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Clock: clockComputed, Better: "lower"},
	{Name: "host.cpu_s", Unit: "s", Clock: clockHost, Better: "lower"},
	{Name: "host.sys_mb", Unit: "MB", Clock: clockHost, Better: "lower"},
	{Name: "host.num_gc", Unit: "count", Clock: clockHost, Better: "lower"},
	{Name: "host.gc_cpu_frac", Unit: "ratio", Clock: clockHost, Better: "lower"},
	{Name: "host.mallocs_k", Unit: "count", Clock: clockHost, Better: "lower"},
	{Name: "host.calib_s", Unit: "s", Clock: clockHost, Better: "lower"},
	{Name: "host.gen_s", Unit: "s", Clock: clockHost, Better: "lower"},
	{Name: "host.cold_rep_s", Unit: "s", Clock: clockHost, Better: "lower"},
	{Name: "share.cc_absorb", Unit: "ratio", Clock: clockComputed, Better: "lower"},
	{Name: "share.ncfile_synth_decode", Unit: "ratio", Clock: clockComputed, Better: "lower"},
	{Name: "share.layout", Unit: "ratio", Clock: clockComputed, Better: "lower"},
	{Name: "share.cluster_run", Unit: "ratio", Clock: clockComputed, Better: "lower"},
	{Name: "share.obs_finish", Unit: "ratio", Clock: clockComputed, Better: "lower"},
}

// perLayer lists every per-layer metric, in output order. A traced run of
// one workload prints all of them; those another workload owns read 0.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), endToEnd[driverEndToEnd:]...)
	defs = append(defs, probeDefs()...)
	for _, w := range workloads {
		for _, s := range workloadSpans[w.name] {
			defs = append(defs, metricDef{Name: "span." + w.name + "." + s + "_s", Unit: "s", Clock: clockHost, Better: "lower"})
		}
	}
	defs = append(defs, countDefs...)
	return append(defs, hostDefs...)
}

// manifest renders BENCHMARK.json from the tables above, so the file and the
// program cannot name different metrics.
func manifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd[:driverEndToEnd] {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}

// stat is one metric's samples within a run and their summary. Value is the
// figure the metric reports and -compare judges: the median, or the smallest
// sample for a Fastest metric.
type stat struct {
	Unit    string    `json:"unit"`
	Clock   string    `json:"clock"`
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newStat(d metricDef, samples []float64) stat {
	q1, med, q3 := quartiles(samples)
	st := stat{Unit: d.Unit, Clock: d.Clock, Value: med, Median: med, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
	if d.Fastest {
		for _, x := range samples {
			st.Value = math.Min(st.Value, x)
		}
	}
	return st
}

// spread is the distance between the quartiles as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the rule the driver applies to its own sets of runs. With fewer
// than two samples all three are the sample itself (0 with none).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4 // 1-based rank of the lower neighbour
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
