package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/pfs"
	"repro/internal/report"
	"repro/internal/workload"
)

// sizing is the input size of every workload. "std" is what BENCHMARK.json
// measures: the issue's geometries with the two largest cut so that a run
// holds a dozen timed reps inside the driver's time cap. "paper" is the
// issue's own sizes (Fig. 9 at 1:1, 12000- and 2000-job streams; 5 to 12 s a
// rep). "tiny" keeps every code path and check but finishes in well under a
// second per rep, for the smoke test.
type sizing struct {
	name string

	// paper_cc: the Fig. 9 geometry.
	ccRanks, ccRPN, ccAggr int
	ccDims                 []int64
	ccSteps, ccY           int64
	ccCB                   int64

	// mem_write_read.
	memRanks, memRPN int
	memDims          []int64
	memCB            int64

	// Stream workloads: submitted jobs.
	backlogJobs, streamJobs int

	// Probes: float32 elements the ncfile codec probes stream through, the
	// shallow and deep queue of the admission probes, and the jobs behind
	// the trace codec probes' trace and the report probes' log.
	codecElems              int
	admitShallow, admitDeep int
	traceJobs, reportJobs   int
}

var sizings = map[string]sizing{
	"std": {
		name:    "std",
		ccRanks: 120, ccRPN: 24, ccAggr: 5,
		ccDims: []int64{204800, 1024, 1024}, ccSteps: 40, ccY: 960, ccCB: 4 << 20,
		memRanks: 64, memRPN: 8, memDims: []int64{1024, 256, 256}, memCB: 4 << 20,
		backlogJobs: 6000, streamJobs: 400,
		codecElems: 64 << 20, admitShallow: 512, admitDeep: 4096, traceJobs: 20000, reportJobs: 300,
	},
	"paper": {
		name:    "paper",
		ccRanks: 120, ccRPN: 24, ccAggr: 5,
		ccDims: []int64{204800, 1024, 1024}, ccSteps: 200, ccY: 960, ccCB: 4 << 20,
		memRanks: 64, memRPN: 8, memDims: []int64{1024, 256, 256}, memCB: 4 << 20,
		backlogJobs: 12000, streamJobs: 2000,
		codecElems: 64 << 20, admitShallow: 1024, admitDeep: 8192, traceJobs: 20000, reportJobs: 300,
	},
	"tiny": {
		name:    "tiny",
		ccRanks: 12, ccRPN: 4, ccAggr: 3,
		ccDims: []int64{256, 128, 128}, ccSteps: 16, ccY: 120, ccCB: 64 << 10,
		memRanks: 8, memRPN: 4, memDims: []int64{32, 64, 64}, memCB: 64 << 10,
		backlogJobs: 120, streamJobs: 60,
		codecElems: 1 << 20, admitShallow: 64, admitDeep: 512, traceJobs: 1000, reportJobs: 40,
	},
}

// outcome is what one rep of a workload produced, apart from host time.
// Everything in it is a function of the inputs alone and must repeat
// bit-exactly from rep to rep; the runner checks that it does.
type outcome struct {
	virtualS  float64   // simulated makespan of the measured run
	waits     []float64 // virtual queue wait of every submitted job (stream workloads)
	attempted int       // jobs submitted (1 for the single-job SPMD workloads)
	failed    int       // jobs that ended with an error, were deadline-dropped, or hold no valid result
	// unexpected is the part of failed the model does not predict: anything
	// but a deadline drop. It is what the run's "failed" count reports.
	unexpected int
	counts     map[string]float64 // exact-repeat counters the program exports
}

// p99Wait is the nearest-rank 99th percentile of the virtual queue waits.
func (o *outcome) p99Wait() float64 {
	if len(o.waits) == 0 {
		return 0
	}
	s := append([]float64(nil), o.waits...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.99*float64(len(s))))-1]
}

// sameAs reports the first field in which two outcomes differ, or "".
func (o *outcome) sameAs(p *outcome) string {
	switch {
	case math.Float64bits(o.virtualS) != math.Float64bits(p.virtualS):
		return fmt.Sprintf("virtual_s %v != %v", o.virtualS, p.virtualS)
	case len(o.waits) != len(p.waits) || math.Float64bits(o.p99Wait()) != math.Float64bits(p.p99Wait()):
		return fmt.Sprintf("p99_wait_vs %v (n=%d) != %v (n=%d)", o.p99Wait(), len(o.waits), p.p99Wait(), len(p.waits))
	case o.attempted != p.attempted || o.failed != p.failed || o.unexpected != p.unexpected:
		return fmt.Sprintf("failed %d/%d != %d/%d", o.failed, o.attempted, p.failed, p.attempted)
	case len(o.counts) != len(p.counts):
		return "count sets differ"
	}
	for k, v := range o.counts {
		if w, ok := p.counts[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Sprintf("count %s %v != %v", k, v, w)
		}
	}
	return ""
}

// machineCounts adds one finished machine's kernel, storage and fabric
// counters to counts.
func machineCounts(counts map[string]float64, c *cluster.Cluster) {
	counts["sim.skipped_wakeups"] += float64(c.Env().SkippedWakeups())
	fs := c.FS()
	counts["pfs.read_bytes"] += float64(fs.BytesRead)
	counts["pfs.write_bytes"] += float64(fs.BytesWritten)
	counts["pfs.requests"] += float64(fs.Requests)
	net := c.World().Net()
	counts["mpi.messages"] += float64(net.Messages)
	counts["mpi.bytes_on_wire"] += float64(net.BytesOnWire)
}

// ccCounts records one run's collective-computing accounting.
func ccCounts(counts map[string]float64, st cc.Stats) {
	counts["cc.map_elements"] = float64(st.MapElements)
	counts["cc.subsets"] = float64(st.Subsets)
	counts["cc.intermediate_records"] = float64(st.IntermediateRecords)
	counts["cc.shuffle_bytes"] = float64(st.ShuffleBytes)
	counts["cc.raw_bytes"] = float64(st.RawBytes)
}

// instance is one workload's generated inputs. rep runs them once on fresh
// machines, stamping spans on rec (nil = tracing off) and keeping temporary
// files under dir.
type instance interface {
	rep(rec *recorder, dir string) (*outcome, error)
}

// workloadDef names a workload and builds its inputs from a seed. gen is
// timed as part of set-up; the program under test sees only what it returns.
type workloadDef struct {
	name string
	why  string
	gen  func(seed uint64, sz sizing, rec *recorder) (instance, error)
}

var workloads = []workloadDef{
	{"paper_cc", "Fig. 9 geometry, a traditional leg then a CC leg: the data plane (pfs synth, ncfile, layout, cc absorb, adio/mpi shuffle) does the work and cluster admission none", genPaperCC},
	{"mem_write_read", "collective write then CC read-back of real stored bytes: the same adio/pfs/ncfile layers without synthesis, so a read-side gain that costs the byte path shows", genMemWriteRead},
	{"sched_backlog", "a job stream at 40x the service rate under priority: a deep pending queue makes cluster admission the cost and the data plane negligible", genSchedBacklog},
	{"stream_observed", "shallow-queue memo-hit stream with events, series, decisions and report attached: obs, obscli and report do most of the work", genStreamObserved},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---------------------------------------------------------------------------
// paper_cc

type paperCC struct {
	sz    sizing
	slabs []layout.Slab
	elems int64
	spe   float64
}

func genPaperCC(seed uint64, sz sizing, rec *recorder) (instance, error) {
	// The seed moves the time window; the geometry (and so the work) is fixed.
	room := sz.ccDims[0] - sz.ccSteps
	sub := layout.Slab{
		Start: []int64{int64(seed % uint64(room+1)), 0, 0},
		Count: []int64{sz.ccSteps, sz.ccY, sz.ccDims[2]},
	}
	if err := layout.Validate(sz.ccDims, sub); err != nil {
		return nil, err
	}
	return &paperCC{sz: sz, slabs: climate.SplitAlongDim(sub, 1, sz.ccRanks),
		elems: sub.NumElems(), spe: 1.2e-6}, nil
}

// leg runs one side of the comparison on its own fresh machine.
func (in *paperCC) leg(rec *recorder, name string, block bool, counts map[string]float64) (virt, sum float64, st cc.Stats, err error) {
	id := rec.begin("dataset_create")
	cl := cluster.New(cluster.Spec{Ranks: in.sz.ccRanks, RanksPerNode: in.sz.ccRPN})
	ds, vid, err := climate.NewDataset3D(cl.FS(), in.sz.ccDims, 40, 4<<20)
	rec.end(id)
	if err != nil {
		return 0, 0, st, err
	}
	aggrs := adio.SpreadAggregators(in.sz.ccRanks, in.sz.ccAggr)
	cache := &adio.PlanCache{}
	id = rec.begin(name)
	virt, err = cl.RunSPMD(name, func(ctx *cluster.JobContext, r *mpi.Rank) error {
		me := ctx.Comm().RankOf(r)
		res, err := cc.ObjectGetVara(r, ctx.Comm(), ctx.Client(r), cc.IO{
			DS: ds, VarID: vid, Slab: in.slabs[me],
			Block: block, Reduce: cc.AllToOne, Aggregators: aggrs,
			Params:     adio.Params{CB: in.sz.ccCB, Pipeline: !block, PlanCache: cache},
			SecPerElem: in.spe,
			Stats:      &st,
		}, cc.Sum{})
		if me == 0 {
			sum = res.Value
		}
		return err
	})
	rec.end(id)
	machineCounts(counts, cl)
	return virt, sum, st, err
}

func (in *paperCC) rep(rec *recorder, dir string) (*outcome, error) {
	o := &outcome{attempted: 1, counts: make(map[string]float64)}
	tTrad, sTrad, stTrad, err := in.leg(rec, "trad_leg", true, o.counts)
	if err != nil {
		return nil, fmt.Errorf("traditional leg: %w", err)
	}
	tCC, sCC, stCC, err := in.leg(rec, "cc_leg", false, o.counts)
	if err != nil {
		return nil, fmt.Errorf("cc leg: %w", err)
	}
	id := rec.begin("verify")
	defer rec.end(id)
	if d := math.Abs(sTrad - sCC); d > 1e-9*math.Abs(sTrad) || sTrad == 0 {
		return nil, fmt.Errorf("sums disagree: traditional %v, cc %v", sTrad, sCC)
	}
	if stCC.MapElements != in.elems || stTrad.MapElements != in.elems {
		return nil, fmt.Errorf("map elements %d (cc) / %d (traditional), subset has %d",
			stCC.MapElements, stTrad.MapElements, in.elems)
	}
	o.virtualS = tCC
	ccCounts(o.counts, stCC)
	o.counts["cc.trad_virtual_s"] = tTrad
	o.counts["cc.speedup_vs_traditional"] = tTrad / tCC
	return o, nil
}

// ---------------------------------------------------------------------------
// mem_write_read

type memWriteRead struct {
	sz    sizing
	slabs []layout.Slab
	vals  [][]float64 // per rank, the values of its slab in row-major order
	want  float64
}

// memValue is the written-value pattern: small integers, exact in float32,
// whose sum over any index range has a closed form.
const memPeriod = 251

func memValue(seed uint64, idx int64) float64 {
	return float64((uint64(idx)+seed)%memPeriod) - memPeriod/2
}

// memSum is the closed-form sum of memValue over indices [0, n).
func memSum(seed uint64, n int64) float64 {
	s0 := int64(seed % memPeriod)
	// Residues run s0, s0+1, ... modulo memPeriod; whole cycles sum to
	// P(P-1)/2 each, the remainder is summed directly (< P terms).
	cycles, rem := n/memPeriod, n%memPeriod
	total := cycles * (memPeriod * (memPeriod - 1) / 2)
	for k := int64(0); k < rem; k++ {
		total += (s0 + k) % memPeriod
	}
	return float64(total) - float64(n)*float64(memPeriod/2)
}

func genMemWriteRead(seed uint64, sz sizing, rec *recorder) (instance, error) {
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: append([]int64(nil), sz.memDims...)}
	in := &memWriteRead{sz: sz,
		slabs: climate.SplitAlongDim(whole, 1, sz.memRanks),
		want:  memSum(seed, whole.NumElems())}
	// The values are made here, in set-up, so that a rep times the program
	// and not the benchmark's own arithmetic.
	id := rec.begin("make_values")
	defer rec.end(id)
	for _, slab := range in.slabs {
		vals := make([]float64, 0, slab.NumElems())
		for _, run := range layout.Flatten(sz.memDims, slab) {
			for i := run.Offset; i < run.End(); i++ {
				vals = append(vals, memValue(seed, i))
			}
		}
		in.vals = append(in.vals, vals)
	}
	return in, nil
}

func (in *memWriteRead) rep(rec *recorder, dir string) (*outcome, error) {
	o := &outcome{attempted: 1, counts: make(map[string]float64)}
	cl := cluster.New(cluster.Spec{Ranks: in.sz.memRanks, RanksPerNode: in.sz.memRPN})
	var schema ncfile.Schema
	vid, err := schema.AddVar("v", ncfile.Float32, in.sz.memDims)
	if err != nil {
		return nil, err
	}
	ds, err := ncfile.Create(cl.FS(), "bench-mem", &schema,
		pfs.NewMemBackend(schema.Layout()), 40, 4<<20, 0)
	if err != nil {
		return nil, err
	}
	aggrs := adio.DefaultAggregators(in.sz.memRanks, in.sz.memRPN)
	var st cc.Stats
	var got float64
	var writePlan, readPlan adio.PlanCache // one per collective call, shared by its ranks
	// Rank 0 stamps the phase spans as it leaves each barrier: by then every
	// rank has finished the phase, because the kernel runs them one at a time.
	phase := -1
	next := func(me int, name string) {
		if me != 0 {
			return
		}
		if phase >= 0 {
			rec.end(phase)
		}
		phase = -1
		if name != "" {
			phase = rec.begin(name)
		}
	}
	virt, err := cl.RunSPMD("mem_write_read", func(ctx *cluster.JobContext, r *mpi.Rank) error {
		c := ctx.Comm()
		me := c.RankOf(r)
		slab := in.slabs[me]
		c.Barrier(r)
		next(me, "write")
		p := adio.Params{CB: in.sz.memCB, PlanCache: &writePlan}
		if err := ds.PutVaraAll(r, c, ctx.Client(r), vid, slab, in.vals[me], aggrs, p); err != nil {
			return err
		}
		c.Barrier(r)
		next(me, "read_cc")
		res, err := cc.ObjectGetVara(r, c, ctx.Client(r), cc.IO{
			DS: ds, VarID: vid, Slab: slab, Reduce: cc.AllToAll, Aggregators: aggrs,
			Params:     adio.Params{CB: in.sz.memCB, Pipeline: true, PlanCache: &readPlan},
			SecPerElem: 1e-8,
			Stats:      &st,
		}, cc.Sum{})
		if err != nil {
			return err
		}
		c.Barrier(r)
		next(me, "")
		if me == 0 {
			got = res.Value
		}
		return nil
	})
	if phase >= 0 { // a rank body returned early
		rec.end(phase)
	}
	if err != nil {
		return nil, err
	}
	id := rec.begin("verify")
	defer rec.end(id)
	if got != in.want {
		return nil, fmt.Errorf("read-back sum %v, analytic sum %v", got, in.want)
	}
	if n := layout.NumElemsOf(in.sz.memDims); st.MapElements != n {
		return nil, fmt.Errorf("map elements %d, variable has %d", st.MapElements, n)
	}
	o.virtualS = virt
	machineCounts(o.counts, cl)
	ccCounts(o.counts, st)
	return o, nil
}

// ---------------------------------------------------------------------------
// Stream workloads

// specSeed is the one workload.Spec.Seed the stream workloads generate from.
// The generator's draws decide how many jobs miss the memo cache or coalesce,
// and with them the work: across Spec.Seed values a 6000-job backlog's host
// time moves by +-13% and its heap by +-10%, more than any bound could take.
// So the stream is pinned and the benchmark's seed moves its time windows
// instead (rotateWindows), the way it moves paper_cc's.
const specSeed = 42

// streamSpec is workload.DefaultSpec sized for a job count: the default
// cohorts arrive at ~20 jobs per virtual second at multiplier 1, so the
// horizon is widened by 1.3x to be sure the cap, not the horizon, ends the
// stream.
func streamSpec(rateMul float64, jobs int) workload.Spec {
	return workload.DefaultSpec(specSeed, rateMul, float64(jobs)/(20*rateMul)*1.3, jobs, "priority")
}

// genStream generates the pinned stream and rotates every job's time window
// by the seed. Within one dataset and window length the rotation is a
// bijection on the window starts, so two jobs name the same slab after it
// exactly when they did before: arrivals, memo hits and queue depths repeat
// from seed to seed, while the values read, and so every result, differ.
func genStream(seed uint64, rateMul float64, jobs int) (*workload.Trace, error) {
	tr, err := workload.Generate(streamSpec(rateMul, jobs))
	if err != nil {
		return nil, err
	}
	steps := make(map[string]int64)
	for _, d := range tr.Datasets {
		steps[d.Name] = d.Dims[0]
	}
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		starts := uint64(steps[j.Dataset] - j.Count[0] + 1)
		j.Start = []int64{int64((uint64(j.Start[0]) + seed%starts) % starts), j.Start[1], j.Start[2]}
	}
	return tr, nil
}

// runTrace is workload.Run taken apart so that each step gets its span.
func runTrace(rec *recorder, tr *workload.Trace, ot *obs.Tracer, runSpan string) (*cluster.Cluster, []workload.Submitted, error) {
	id := rec.begin("provision")
	c, err := workload.Provision(tr, ot)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.begin("submit")
	subs, err := workload.SubmitAll(c, tr)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.begin(runSpan)
	_, err = c.Run()
	rec.end(id)
	return c, subs, err
}

// streamOutcome audits a finished stream and rolls it up.
func streamOutcome(rec *recorder, c *cluster.Cluster, tr *workload.Trace, subs []workload.Submitted) (*outcome, error) {
	id := rec.begin("audit")
	results := make([]*cluster.JobResult, len(subs))
	for i, s := range subs {
		results[i] = s.Res.JobResult
	}
	err := cluster.AuditResults(results, tr.Machine.Ranks)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("summarize")
	defer rec.end(id)
	o := &outcome{virtualS: c.Now(), attempted: len(subs), counts: make(map[string]float64)}
	var dropped int
	for _, s := range subs {
		jr := s.Res.JobResult
		switch {
		case errors.Is(jr.Err, cluster.ErrDeadlineExpired):
			dropped++
			o.failed++
		case !s.Res.Valid():
			o.failed++
			o.unexpected++
		}
		if w := jr.QueueWait(); w >= 0 {
			o.waits = append(o.waits, w)
		}
	}
	// The program's own per-class rollup must agree with the count above.
	var classDropped int
	for _, cs := range workload.Summarize(subs) {
		classDropped += cs.Dropped
	}
	if classDropped != dropped {
		return nil, fmt.Errorf("workload.Summarize counts %d drops, results hold %d", classDropped, dropped)
	}
	ms := c.MemoStats()
	if ms.Hits+ms.Waiters+ms.Coalesced+ms.Misses+dropped != len(subs) {
		return nil, fmt.Errorf("memo accounting %+v + %d drops does not cover %d jobs", ms, dropped, len(subs))
	}
	machineCounts(o.counts, c)
	ccCounts(o.counts, c.TotalStats())
	o.counts["cluster.memo_hits"] = float64(ms.Hits + ms.Waiters)
	o.counts["cluster.memo_misses"] = float64(ms.Misses)
	o.counts["cluster.memo_coalesced"] = float64(ms.Coalesced)
	o.counts["cluster.jobs_dropped"] = float64(dropped)
	return o, nil
}

type schedBacklog struct{ tr *workload.Trace }

func genSchedBacklog(seed uint64, sz sizing, rec *recorder) (instance, error) {
	id := rec.begin("generate")
	defer rec.end(id)
	tr, err := genStream(seed, 40, sz.backlogJobs)
	return &schedBacklog{tr}, err
}

func (in *schedBacklog) rep(rec *recorder, dir string) (*outcome, error) {
	c, subs, err := runTrace(rec, in.tr, nil, "run")
	if err != nil {
		return nil, err
	}
	return streamOutcome(rec, c, in.tr, subs)
}

type streamObserved struct{ tr *workload.Trace }

func genStreamObserved(seed uint64, sz sizing, rec *recorder) (instance, error) {
	id := rec.begin("generate")
	defer rec.end(id)
	tr, err := genStream(seed, 4, sz.streamJobs)
	return &streamObserved{tr}, err
}

// telemetryFiles are the artifacts one observed rep leaves in its directory.
func telemetryFiles(dir string) obscli.Flags {
	return obscli.Flags{
		Events:  filepath.Join(dir, "events.jsonl"),
		Series:  filepath.Join(dir, "series.jsonl"),
		Explain: true,
		Report:  filepath.Join(dir, "report.txt"),
	}
}

func (in *streamObserved) rep(rec *recorder, dir string) (*outcome, error) {
	fl := telemetryFiles(dir)
	id := rec.begin("attach")
	ot := obs.New()
	plane, err := fl.Attach(ot, io.Discard)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	c, subs, err := runTrace(rec, in.tr, ot, "run")
	if err != nil {
		plane.Finish()
		return nil, err
	}
	id = rec.begin("finish")
	_, err = plane.Finish()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	o, err := streamOutcome(rec, c, in.tr, subs)
	if err != nil {
		return nil, err
	}
	events, err := os.ReadFile(fl.Events)
	if err != nil {
		return nil, err
	}
	o.counts["obs.events_mb"] = float64(len(events)) / 1e6
	o.counts["obs.event_lines"] = float64(bytes.Count(events, []byte{'\n'}))
	o.counts["obs.decision_records"] = float64(len(ot.Decisions()))
	o.counts["obs.series_points"] = float64(ot.Series().Points())
	if st, err := os.Stat(fl.Report); err != nil || st.Size() == 0 {
		return nil, fmt.Errorf("run report missing or empty: %v", err)
	}
	return o, nil
}

// afterTracedRep times, on the log the traced rep just wrote, the offline
// report pipeline step by step (Plane.Finish ran the same three steps inside
// the rep's "finish" span), and the same stream with no telemetry attached.
func (in *streamObserved) afterTracedRep(rec *recorder, dir string) error {
	fl := telemetryFiles(dir)
	id := rec.begin("report_load")
	data, err := report.Load(fl.Events, fl.Series)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("report_build")
	rep := report.Build(data, 0)
	rec.end(id)
	id = rec.begin("report_write")
	err = rep.WriteText(io.Discard)
	rec.end(id)
	if err != nil {
		return err
	}
	_, _, err = runTrace(rec, in.tr, nil, "off_run")
	return err
}
