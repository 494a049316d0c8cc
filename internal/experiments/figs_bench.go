package experiments

import (
	"fmt"

	"repro/internal/adio"
	"repro/internal/asciichart"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// ccRunSpec describes one measured climate-benchmark run.
type ccRunSpec struct {
	nranks, rpn int
	naggr       int
	dims        []int64 // 3-D climate variable (T, Y, X)
	slabs       []layout.Slab
	spe         float64 // map cost per element
	block       bool    // traditional baseline
	reduce      cc.ReduceMode
	cb          int64
	pipeline    bool
	stats       *cc.Stats
	stripeCount int
	stripeSize  int64          // 0 = 4 MB
	read        pfs.ReadPolicy // straggler handling: read timeout/retry
	rebalance   int            // and rebalanced read rounds
	plan        *fault.Plan    // injected faults (nil = healthy cluster)
}

// runClimate3D executes the spec on a fresh cluster and returns the virtual
// makespan.
func runClimate3D(spec ccRunSpec) (float64, error) {
	return runClimate3DOn(newCluster(spec.nranks, spec.rpn, nil), spec)
}

// runClimate3DOn is runClimate3D on a fresh cluster the caller keeps, to read
// the machine's counters after the run.
func runClimate3DOn(cl *cluster.Cluster, spec ccRunSpec) (float64, error) {
	if spec.plan != nil {
		spec.plan.Apply(cl.World(), cl.FS())
	}
	stripes := spec.stripeCount
	if stripes == 0 {
		stripes = 40
	}
	ss := spec.stripeSize
	if ss == 0 {
		ss = 4 << 20
	}
	ds, id, err := climate.NewDataset3D(cl.FS(), spec.dims, stripes, ss)
	if err != nil {
		return 0, err
	}
	aggrs := adio.SpreadAggregators(spec.nranks, spec.naggr)
	cache := &adio.PlanCache{}
	cb := spec.cb
	if cb == 0 {
		cb = 4 << 20
	}
	pipeline := spec.pipeline && !spec.block // Figure 5's baseline blocks
	return cl.RunSPMD("climate3d", func(ctx *cluster.JobContext, r *mpi.Rank) error {
		_, err := cc.ObjectGetVara(r, ctx.Comm(), ctx.Client(r), cc.IO{
			DS: ds, VarID: id, Slab: spec.slabs[ctx.Comm().RankOf(r)],
			Block: spec.block, Reduce: spec.reduce,
			Aggregators: aggrs,
			Params: adio.Params{CB: cb, Pipeline: pipeline, PlanCache: cache,
				Read: spec.read, RebalanceRounds: spec.rebalance},
			SecPerElem: spec.spe,
			Stats:      spec.stats,
		}, cc.Sum{})
		return err
	})
}

// benchDims is the 800 GB climate benchmark variable: (T=204800, 1024,
// 1024) float32 — generated lazily, so the virtual size is free.
func benchDims() []int64 { return []int64{204800, 1024, 1024} }

// fig9Setup derives the Figure 9/10/11 base geometry from the config.
type fig9Setup struct {
	nranks, rpn, naggr int
	dims               []int64
	slabs              []layout.Slab
	perRankElems       int64
	cb                 int64
}

func newFig9Setup(cfg Config) fig9Setup {
	cfg = cfg.Defaults()
	s := fig9Setup{nranks: 120, rpn: 24, naggr: 5, dims: benchDims(), cb: 4 << 20}
	steps := int64(200 * cfg.Scale)
	yTot := int64(960) // divisible by 120: each rank owns a thin Y band
	if cfg.Quick {
		// Keep enough collective-buffer iterations for the pipeline to
		// overlap — CC's benefit vanishes in a single-iteration read.
		s.nranks, s.rpn, s.naggr = 12, 4, 3
		s.dims = []int64{256, 128, 128}
		s.cb = 64 << 10
		steps, yTot = 16, 120
	}
	if steps < 4 {
		steps = 4
	}
	// The paper's 3-D subset access: every rank reads a thin latitude band
	// across many time steps, so each collective-buffer window interleaves
	// all ranks' data — the non-contiguous pattern two-phase I/O exists for.
	sub := layout.Slab{
		Start: []int64{100, 0, 0},
		Count: []int64{steps, yTot, s.dims[2]},
	}
	s.slabs = climate.SplitAlongDim(sub, 1, s.nranks)
	s.perRankElems = steps * (yTot / int64(s.nranks)) * s.dims[2]
	return s
}

// Fig9 reproduces the speedup-vs-computation:I/O-ratio sweep (paper Figure
// 9): ratios 10:1 … 1:10, 120 processes, 5 aggregators, peak expected near
// 1:1 and the I/O-heavy side beating the compute-heavy side.
func Fig9(cfg Config) (*Table, error) {
	s := newFig9Setup(cfg)
	base := ccRunSpec{nranks: s.nranks, rpn: s.rpn, naggr: s.naggr,
		dims: s.dims, slabs: s.slabs, pipeline: true, cb: s.cb}

	// Calibrate the I/O time of the traditional workflow with zero compute.
	calib := base
	calib.block = true
	tIO, err := runClimate3D(calib)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig9",
		Title:   "Speedup with Different Computation vs I/O Ratio",
		Headers: []string{"comp:I/O", "traditional (s)", "collective computing (s)", "speedup"},
	}
	ratios := []struct {
		label string
		r     float64
	}{
		{"10:1", 10}, {"5:1", 5}, {"2:1", 2}, {"1:1", 1},
		{"1:2", 0.5}, {"1:5", 0.2}, {"1:10", 0.1},
	}
	var sum, peak float64
	var compHeavy, ioHeavy []float64
	var barLabels []string
	var barVals []float64
	for _, rt := range ratios {
		spe := rt.r * tIO / float64(s.perRankElems)
		trad := base
		trad.block = true
		trad.spe = spe
		tTrad, err := runClimate3D(trad)
		if err != nil {
			return nil, err
		}
		ccRun := base
		ccRun.spe = spe
		ccRun.reduce = cc.AllToOne
		tCC, err := runClimate3D(ccRun)
		if err != nil {
			return nil, err
		}
		sp := tTrad / tCC
		t.AddRow(rt.label, secs(tTrad), secs(tCC), ratio(sp))
		barLabels = append(barLabels, rt.label)
		barVals = append(barVals, sp)
		sum += sp
		if sp > peak {
			peak = sp
		}
		if rt.r > 1 {
			compHeavy = append(compHeavy, sp)
		} else if rt.r < 1 {
			ioHeavy = append(ioHeavy, sp)
		}
	}
	t.Chart = asciichart.Bars(barLabels, barVals, 48)
	t.Notef("calibrated I/O-only traditional time: %.2fs", tIO)
	t.Notef("average speedup %.2fx (paper: 1.57x), peak %.2fx (paper: 2.44x at 1:1)",
		sum/float64(len(ratios)), peak)
	t.Notef("avg speedup computation>I/O: %.2fx, I/O>computation: %.2fx (paper: the latter is higher)",
		mean(compHeavy), mean(ioHeavy))
	return t, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig10 reproduces the weak-scaling experiment (paper Figure 10): fixed
// per-process request size, computation:I/O ratio 1:5, process counts
// 24..1024; the paper reports speedup growing from 1.42x to 1.7x.
func Fig10(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	procs := []int{24, 48, 120, 240, 480, 1024}
	rpn := 24
	if cfg.Quick {
		procs = []int{4, 8, 16}
		rpn = 4
	}
	dims := benchDims()
	cb := int64(4 << 20)
	stepsPerUnit := cfg.Scale // time steps per rank-unit of workload
	if cfg.Quick {
		dims = []int64{2048, 128, 128}
		cb = 64 << 10
		stepsPerUnit = 0.5
	}
	t := &Table{
		ID:      "fig10",
		Title:   "Scalability of Collective Computing (weak scaling, ratio 1:5)",
		Headers: []string{"processes", "traditional (s)", "collective computing (s)", "speedup"},
	}
	var speedups []float64
	for _, p := range procs {
		// Fixed per-process request: every rank owns a thin Y band across a
		// time extent that grows with the process count (weak scaling).
		steps := int64(float64(p) * stepsPerUnit)
		if steps < 1 {
			steps = 1
		}
		yTot := dims[1] - dims[1]%int64(p)
		sub := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{steps, yTot, dims[2]}}
		slabs := climate.SplitAlongDim(sub, 1, p)
		perRankElems := steps * (yTot / int64(p)) * dims[2]
		naggr := (p + rpn - 1) / rpn
		base := ccRunSpec{nranks: p, rpn: rpn, naggr: naggr,
			dims: dims, slabs: slabs, pipeline: true, cb: cb}
		calib := base
		calib.block = true
		tIO, err := runClimate3D(calib)
		if err != nil {
			return nil, err
		}
		spe := 0.2 * tIO / float64(perRankElems)
		trad := base
		trad.block = true
		trad.spe = spe
		tTrad, err := runClimate3D(trad)
		if err != nil {
			return nil, err
		}
		ccRun := base
		ccRun.spe = spe
		ccRun.reduce = cc.AllToOne
		tCC, err := runClimate3D(ccRun)
		if err != nil {
			return nil, err
		}
		sp := tTrad / tCC
		speedups = append(speedups, sp)
		t.AddRow(fmt.Sprintf("%d", p), secs(tTrad), secs(tCC), ratio(sp))
	}
	t.Chart = asciichart.Line([]asciichart.Series{{Name: "speedup", Points: speedups}}, 48, 8)
	t.Notef("speedup across scales: first %.2fx, last %.2fx (paper: 1.42x at 120 -> 1.7x at 1024)",
		speedups[0], speedups[len(speedups)-1])
	return t, nil
}

// Fig11 reproduces the overhead analysis (paper Figure 11): the reduction
// overhead per process — the traditional workflow's analysis+reduce stage
// vs collective computing's logical construction + local reduction — at
// 128/256/512 processes with total I/O fixed at (scaled) 40 GB and 80 GB.
func Fig11(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	procs := []int{128, 256, 512}
	rpn := 24
	if cfg.Quick {
		procs = []int{4, 8}
		rpn = 4
	}
	dims := benchDims()
	if cfg.Quick {
		dims = []int64{64, 128, 128}
	}
	// Total volumes: the paper's 40/80 GB scaled by Scale/10 to keep real
	// data streaming tractable (documented in EXPERIMENTS.md).
	vol40 := int64(40 * (1 << 30) * cfg.Scale / 10)
	if cfg.Quick {
		vol40 = 8 << 20
	}
	vol80 := 2 * vol40
	// The analysis is a sum; its per-element cost represents the reduction
	// loop of Figure 5 (lines 5-7).
	const spe = 2e-8

	measure := func(p int, totalBytes int64, block bool) (float64, error) {
		steps := totalBytes / (4 * dims[1] * dims[2])
		if steps < 1 {
			steps = 1
		}
		if steps > dims[0] {
			steps = dims[0]
		}
		sub := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{steps, dims[1], dims[2]}}
		// Split along Y: process counts exceed the scaled time extent.
		slabs := climate.SplitAlongDim(sub, 1, p)
		stats := &cc.Stats{}
		cb := int64(4 << 20)
		if cfg.Quick {
			cb = 64 << 10
		}
		spec := ccRunSpec{nranks: p, rpn: rpn, naggr: (p + rpn - 1) / rpn,
			dims: dims, slabs: slabs, pipeline: true, spe: spe, cb: cb,
			block: block, reduce: cc.AllToOne, stats: stats}
		if _, err := runClimate3D(spec); err != nil {
			return 0, err
		}
		if block {
			// Traditional "reduction": the analysis loop + MPI_Reduce.
			return (stats.MapSeconds + stats.FinalReduceSeconds) / float64(p), nil
		}
		// CC "local reduction": construction + intermediate merging.
		return (stats.ConstructSeconds + stats.LocalReduceSeconds +
			stats.FinalReduceSeconds) / float64(spec.naggr), nil
	}

	t := &Table{
		ID:      "fig11",
		Title:   "Overhead Analysis (reduction time per process)",
		Headers: []string{"processes", "MPI-40G (s)", "CC-40G (s)", "CC-80G (s)"},
	}
	var s40m, s40c, s80c []float64
	for _, p := range procs {
		m40, err := measure(p, vol40, true)
		if err != nil {
			return nil, err
		}
		c40, err := measure(p, vol40, false)
		if err != nil {
			return nil, err
		}
		c80, err := measure(p, vol80, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", p), secs(m40), secs(c40), secs(c80))
		s40m = append(s40m, m40)
		s40c = append(s40c, c40)
		s80c = append(s80c, c80)
	}
	t.Chart = asciichart.Line([]asciichart.Series{
		{Name: "MPI-40G", Points: s40m},
		{Name: "CC-40G", Points: s40c},
		{Name: "CC-80G", Points: s80c},
	}, 48, 8)
	t.Notef("volumes scaled to %.2f GB / %.2f GB of real streamed data", float64(vol40)/(1<<30), float64(vol80)/(1<<30))
	t.Notef("paper: overhead decreases with processes, CC-80G > CC-40G, and CC adds no bottleneck vs the ~76s I/O cost")
	return t, nil
}

// Fig12 reproduces the metadata-overhead sweep (paper Figure 12): the
// intermediate-result coordinate metadata volume vs the MPI collective
// buffer size, with the optimum around 8-12 MB and no further gain beyond.
func Fig12(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	nranks, rpn := 24, 12
	dims := []int64{64, 8, 1024, 1024} // 4-D variable: (T, Z, Y, X)
	sub := layout.Slab{Start: []int64{0, 0, 0, 0}, Count: []int64{24, 3, 1024, 1024}}
	if cfg.Quick {
		nranks, rpn = 4, 2
		dims = []int64{8, 4, 256, 256}
		sub = layout.Slab{Start: []int64{0, 0, 0, 0}, Count: []int64{4, 2, 256, 256}}
	}
	slabs := climate.SplitAlongDim(sub, 0, nranks)
	cbs := []int64{1 << 20, 4 << 20, 8 << 20, 12 << 20, 24 << 20}
	if cfg.Quick {
		// Scale the buffer sweep to the shrunken chunk size so the
		// split-vs-fit transition still happens.
		cbs = []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	}
	t := &Table{
		ID:      "fig12",
		Title:   "Metadata Overhead vs MPI Collective Buffer Size",
		Headers: []string{"buffer (MB)", "metadata (KB)", "records", "subsets"},
	}
	var prev int64 = -1
	var optimum int64
	var mdSeries []float64
	for _, cb := range cbs {
		cl := newCluster(nranks, rpn, nil)
		ds, id, err := climate.NewDataset4D(cl.FS(), dims, 40, 4<<20)
		if err != nil {
			return nil, err
		}
		stats := &cc.Stats{}
		cache := &adio.PlanCache{}
		if _, err := cl.RunSPMD("fig12", func(ctx *cluster.JobContext, r *mpi.Rank) error {
			_, err := cc.ObjectGetVara(r, ctx.Comm(), ctx.Client(r), cc.IO{
				DS: ds, VarID: id, Slab: slabs[ctx.Comm().RankOf(r)],
				Reduce: cc.AllToOne,
				Params: adio.Params{CB: cb, Pipeline: true, PlanCache: cache},
				Stats:  stats,
			}, cc.Sum{})
			return err
		}); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", cb>>20), fmt.Sprintf("%.2f", float64(stats.MetadataBytes)/1024),
			fmt.Sprintf("%d", stats.IntermediateRecords), fmt.Sprintf("%d", stats.Subsets))
		mdSeries = append(mdSeries, float64(stats.MetadataBytes)/1024)
		if prev == -1 || stats.MetadataBytes < prev {
			optimum = cb >> 20
		}
		prev = stats.MetadataBytes
	}
	t.Chart = asciichart.Line([]asciichart.Series{{Name: "metadata (KB)", Points: mdSeries}}, 48, 8)
	t.Notef("metadata shrinks as the buffer grows, flattening around %d MB (paper: optimum ~8-12 MB)", optimum)
	t.Notef("absolute bytes scale with the accessed volume; the paper's multi-GB run reports MBs")
	return t, nil
}
