package main

import (
	"fmt"
	"runtime"
	"time"
)

// calibrate times a fixed arithmetic loop, so that host figures from two
// machines can be read side by side. It gates nothing.
func calibrate() float64 {
	return timed(func() {
		h := uint64(88172645463325252)
		for i := 0; i < 50_000_000; i++ {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
		}
		sink += float64(h & 1)
	})
}

// traced is the per-layer pass of one workload: a discarded warm-up rep,
// then pairs of an untraced and a traced rep until a third of cfg.seconds
// has passed (the probes, which run afterwards, take about half). It returns
// every per-layer metric but the probes' and the shares computed from them
// (addProbes); those owned by another workload stay 0.
func traced(w workloadDef, cfg config, rec *recorder) *workloadResult {
	res := &workloadResult{Name: w.name, Why: w.why, PerLayer: make(map[string]float64)}
	pl := res.PerLayer
	for _, d := range perLayer() {
		pl[d.Name] = 0
	}
	chk := &checker{res: res}
	defer chk.finish()

	start := time.Now()
	pl["host.calib_s"] = calibrate()
	rec.workload, rec.rep = w.name, 0
	var in instance
	var err error
	pl["host.gen_s"] = timed(func() { in, err = w.gen(cfg.seed, cfg.sz, rec) })
	if err != nil {
		chk.fold(0, nil, fmt.Errorf("generating inputs: %w", err))
		return res
	}
	o, cold, err := runRep(in, nil, cfg.tmp)
	chk.fold(0, o, err)
	if err != nil {
		return res
	}
	pl["host.cold_rep_s"] = cold.wall

	var plain, withTrace []float64
	var last hostSample
	spans := make(map[string][]float64)
	for k := 1; ; k++ {
		o, h, err := runRep(in, nil, cfg.tmp)
		chk.fold(2*k-1, o, err)
		if err != nil {
			return res
		}
		plain = append(plain, h.wall)
		rec.rep = k
		o, h, err = runRep(in, rec, cfg.tmp)
		chk.fold(2*k, o, err)
		if err != nil {
			return res
		}
		withTrace = append(withTrace, h.wall)
		last = h
		for name, self := range rec.selfTimes(w.name, k) {
			spans[name] = append(spans[name], self)
		}
		if time.Since(start).Seconds() >= cfg.seconds/3 {
			break
		}
	}
	wall := median(withTrace)
	self := rec.selfTimes(w.name, 0) // input generation ran as rep 0
	for name, samples := range spans {
		self[name] = median(samples)
	}
	for _, name := range workloadSpans[w.name] {
		pl["span."+w.name+"."+name+"_s"] = self[name]
	}
	pl["trace_overhead_ratio"] = wall / median(plain)

	ref := chk.ref
	pl["virtual_s"] = ref.virtualS
	pl["p99_wait_vs"] = ref.p99Wait()
	pl["failed_frac"] = float64(ref.failed) / float64(ref.attempted)
	for name, v := range ref.counts {
		pl[name] = v
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pl["host.cpu_s"] = last.cpu
	pl["host.num_gc"] = last.numGC
	pl["host.mallocs_k"] = last.mallocsK
	pl["host.sys_mb"] = float64(ms.Sys) / 1e6
	pl["host.gc_cpu_frac"] = ms.GCCPUFraction

	if self["off_run"] > 0 {
		pl["obs.overhead_ratio"] = self["run"] / self["off_run"]
		pl["obs.finish_over_run_ratio"] = self["finish"] / self["run"]
		pl["share.obs_finish"] = self["finish"] / wall
	}
	if w.name == "sched_backlog" {
		pl["share.cluster_run"] = self["run"] / wall
	}
	res.tracedWall = wall
	return res
}

// addProbes completes a traced result with the probe rates and the shares
// computed from them. A layer's share is its work count over its probe rate
// over the rep's wall time: what a rep would save if the layer cost nothing.
func addProbes(res *workloadResult, probes map[string]float64) {
	pl := res.PerLayer
	for name, v := range probes {
		pl[name] = v
	}
	if res.Name == "paper_cc" && res.tracedWall > 0 {
		elems := 2 * pl["cc.map_elements"] // both legs map the subset
		pl["share.cc_absorb"] = elems / (1e6 * probes["cc.absorb_melem_per_s.sum"]) / res.tracedWall
		pl["share.ncfile_synth_decode"] = elems / (1e6 * probes["ncfile.synth_read_melem_per_s"]) / res.tracedWall
		pl["share.layout"] = pl["cc.subsets"] / probes["layout.run_to_slabs_per_s"] / res.tracedWall
	}
}
