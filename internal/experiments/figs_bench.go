package experiments

import (
	"fmt"

	"repro/internal/adio"
	"repro/internal/asciichart"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/layout"
)

// benchDims is the 800 GB climate benchmark variable: (T=204800, 1024,
// 1024) float32 — generated lazily, so the virtual size is free.
func benchDims() []int64 { return []int64{204800, 1024, 1024} }

// fig9Bench is the Figure 9 benchmark, which faults reuses: 120 processes, 5
// aggregators, every rank a thin latitude band across many time steps, so each
// collective-buffer window interleaves all ranks' data — the non-contiguous
// pattern two-phase I/O exists for.
func fig9Bench(cfg Config) bench {
	cfg = cfg.Defaults()
	nranks, rpn, naggr, dims, cb := 120, 24, 5, benchDims(), int64(4<<20)
	steps := int64(200 * cfg.Scale)
	yTot := int64(960) // divisible by 120: each rank owns a thin Y band
	if cfg.Quick {
		// Keep enough collective-buffer iterations for the pipeline to
		// overlap — CC's benefit vanishes in a single-iteration read.
		nranks, rpn, naggr = 12, 4, 3
		dims, cb = []int64{256, 128, 128}, 64<<10
		steps, yTot = 16, 120
	}
	sub := layout.Slab{Start: []int64{100, 0, 0}, Count: []int64{max(steps, 4), yTot, dims[2]}}
	return newBench(nranks, rpn, naggr, dims, sub, cb)
}

// Fig9 reproduces the speedup-vs-computation:I/O-ratio sweep (paper Figure
// 9): ratios 10:1 … 1:10, 120 processes, 5 aggregators, peak expected near
// 1:1 and the I/O-heavy side beating the compute-heavy side.
func Fig9(cfg Config) (*Table, error) {
	b := fig9Bench(cfg)
	trad, _ := b.legs("fig9", 0)
	tIO, spe, err := cfg.calibrate(trad, b.perRankElems)
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
		tr, cr, err := cfg.compare(b.legs("fig9", spe(rt.r)))
		if err != nil {
			return nil, err
		}
		sp := tr.makespan / cr.makespan
		t.AddRow(rt.label, secs(tr.makespan), secs(cr.makespan), ratio(sp))
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
	t := &Table{
		ID:      "fig10",
		Title:   "Scalability of Collective Computing (weak scaling, ratio 1:5)",
		Headers: []string{"processes", "traditional (s)", "collective computing (s)", "speedup"},
	}
	var speedups []float64
	for _, b := range fig10Points(cfg) {
		trad, _ := b.legs("fig10", 0)
		_, spe, err := cfg.calibrate(trad, b.perRankElems)
		if err != nil {
			return nil, err
		}
		tr, cr, err := cfg.compare(b.legs("fig10", spe(0.2)))
		if err != nil {
			return nil, err
		}
		sp := tr.makespan / cr.makespan
		speedups = append(speedups, sp)
		t.AddRow(fmt.Sprintf("%d", b.nranks), secs(tr.makespan), secs(cr.makespan), ratio(sp))
	}
	t.Chart = asciichart.Line([]asciichart.Series{{Name: "speedup", Points: speedups}}, 48, 8)
	t.Notef("speedup across scales: first %.2fx, last %.2fx (paper: 1.42x at 120 -> 1.7x at 1024)",
		speedups[0], speedups[len(speedups)-1])
	return t, nil
}

// fig10Points is Figure 10's sweep, one benchmark per process count: a fixed
// per-process request, every rank a thin Y band across a time extent that
// grows with the process count (weak scaling), one aggregator per node.
func fig10Points(cfg Config) []bench {
	cfg = cfg.Defaults()
	procs, rpn := []int{24, 48, 120, 240, 480, 1024}, 24
	dims, cb := benchDims(), int64(4<<20)
	stepsPerUnit := cfg.Scale // time steps per rank-unit of workload
	if cfg.Quick {
		procs, rpn = []int{4, 8, 16}, 4
		dims, cb, stepsPerUnit = []int64{2048, 128, 128}, 64<<10, 0.5
	}
	var pts []bench
	for _, p := range procs {
		steps := max(int64(float64(p)*stepsPerUnit), 1)
		yTot := dims[1] - dims[1]%int64(p)
		sub := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{steps, yTot, dims[2]}}
		pts = append(pts, newBench(p, rpn, (p+rpn-1)/rpn, dims, sub, cb))
	}
	return pts
}

// Fig11 reproduces the overhead analysis (paper Figure 11): the reduction
// overhead per process — the traditional workflow's analysis+reduce stage
// vs collective computing's logical construction + local reduction — at
// 128/256/512 processes with total I/O fixed at (scaled) 40 GB and 80 GB.
func Fig11(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	pts, vol40 := fig11Points(cfg)
	t := &Table{
		ID:      "fig11",
		Title:   "Overhead Analysis (reduction time per process)",
		Headers: []string{"processes", "MPI-40G (s)", "CC-40G (s)", "CC-80G (s)"},
	}
	var s40m, s40c, s80c []float64
	for _, pt := range pts {
		// The analysis is a sum; its per-element cost represents the
		// reduction loop of Figure 5 (lines 5-7): 20 ns, in the machine's
		// unit.
		spe := 2e-8 * cfg.timeUnit
		mpi40, cc40, err := cfg.compare(pt[0].legs("fig11", spe))
		if err != nil {
			return nil, err
		}
		_, l80 := pt[1].legs("fig11", spe)
		cc80, err := cfg.runLeg(l80)
		if err != nil {
			return nil, err
		}
		b := pt[0]
		// Traditional "reduction": the analysis loop + MPI_Reduce.
		m40 := (mpi40.stats.MapSeconds + mpi40.stats.FinalReduceSeconds) / float64(b.nranks)
		// CC "local reduction": construction + intermediate merging.
		ccOverhead := func(st cc.Stats) float64 {
			return (st.ConstructSeconds + st.LocalReduceSeconds + st.FinalReduceSeconds) / float64(b.naggr)
		}
		c40, c80 := ccOverhead(cc40.stats), ccOverhead(cc80.stats)
		t.AddRow(fmt.Sprintf("%d", b.nranks), secs(m40), secs(c40), secs(c80))
		s40m = append(s40m, m40)
		s40c = append(s40c, c40)
		s80c = append(s80c, c80)
	}
	t.Chart = asciichart.Line([]asciichart.Series{
		{Name: "MPI-40G", Points: s40m},
		{Name: "CC-40G", Points: s40c},
		{Name: "CC-80G", Points: s80c},
	}, 48, 8)
	t.Notef("volumes scaled to %.2f GB / %.2f GB of real streamed data", float64(vol40)/(1<<30), float64(2*vol40)/(1<<30))
	t.Notef("paper: overhead decreases with processes, CC-80G > CC-40G, and CC adds no bottleneck vs the ~76s I/O cost")
	return t, nil
}

// fig11Points is Figure 11's sweep: per process count, the benchmark reading
// vol40 and twice vol40 in total, the paper's 40/80 GB scaled by Scale/10 to
// keep real data streaming tractable (documented in EXPERIMENTS.md). Ranks
// split the volume along Y: process counts exceed the scaled time extent.
func fig11Points(cfg Config) (pts [][2]bench, vol40 int64) {
	cfg = cfg.Defaults()
	procs, rpn, dims, cb := []int{128, 256, 512}, 24, benchDims(), int64(4<<20)
	vol40 = int64(40 * (1 << 30) * cfg.Scale / 10)
	if cfg.Quick {
		procs, rpn, dims, cb = []int{4, 8}, 4, []int64{64, 128, 128}, 64<<10
		vol40 = 8 << 20
	}
	at := func(p int, totalBytes int64) bench {
		steps := min(max(totalBytes/(4*dims[1]*dims[2]), 1), dims[0])
		sub := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{steps, dims[1], dims[2]}}
		return newBench(p, rpn, (p+rpn-1)/rpn, dims, sub, cb)
	}
	for _, p := range procs {
		pts = append(pts, [2]bench{at(p, vol40), at(p, 2*vol40)})
	}
	return pts, vol40
}

// Fig12 reproduces the metadata-overhead sweep (paper Figure 12): the
// intermediate-result coordinate metadata volume vs the MPI collective
// buffer size, with the optimum around 8-12 MB and no further gain beyond.
func Fig12(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Metadata Overhead vs MPI Collective Buffer Size",
		Headers: []string{"buffer (MB)", "metadata (KB)", "records", "subsets"},
	}
	var prev int64 = -1
	var optimum int64
	var mdSeries []float64
	for _, l := range fig12Legs(cfg) {
		run, err := cfg.runLeg(l)
		if err != nil {
			return nil, err
		}
		cb, st := l.io.Params.CB, run.stats
		t.AddRow(fmt.Sprintf("%d", cb>>20), fmt.Sprintf("%.2f", float64(st.MetadataBytes)/1024),
			fmt.Sprintf("%d", st.IntermediateRecords), fmt.Sprintf("%d", st.Subsets))
		mdSeries = append(mdSeries, float64(st.MetadataBytes)/1024)
		if prev == -1 || st.MetadataBytes < prev {
			optimum = cb >> 20
		}
		prev = st.MetadataBytes
	}
	t.Chart = asciichart.Line([]asciichart.Series{{Name: "metadata (KB)", Points: mdSeries}}, 48, 8)
	t.Notef("metadata shrinks as the buffer grows, flattening around %d MB (paper: optimum ~8-12 MB)", optimum)
	t.Notef("absolute bytes scale with the accessed volume; the paper's multi-GB run reports MBs")
	return t, nil
}

// fig12Legs is Figure 12's sweep, one CC Sum leg per collective-buffer size:
// 24 processes, each a run of time steps of a 4-D variable, one aggregator
// per node.
func fig12Legs(cfg Config) []leg {
	nranks, rpn := 24, 12
	dims := []int64{64, 8, 1024, 1024} // 4-D variable: (T, Z, Y, X)
	sub := layout.Slab{Start: []int64{0, 0, 0, 0}, Count: []int64{24, 3, 1024, 1024}}
	cbs := []int64{1 << 20, 4 << 20, 8 << 20, 12 << 20, 24 << 20}
	if cfg.Quick {
		nranks, rpn = 4, 2
		dims = []int64{8, 4, 256, 256}
		sub = layout.Slab{Start: []int64{0, 0, 0, 0}, Count: []int64{4, 2, 256, 256}}
		// Scale the buffer sweep to the shrunken chunk size so the
		// split-vs-fit transition still happens.
		cbs = []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	}
	slabs := climate.SplitAlongDim(sub, 0, nranks)
	aggrs := adio.DefaultAggregators(nranks, rpn)
	var legs []leg
	for _, cb := range cbs {
		legs = append(legs, leg{name: "fig12", nranks: nranks, rpn: rpn,
			create: climate.NewDataset4D, dims: dims, stripes: 40, stripeSize: 4 << 20, slabs: slabs,
			io: cc.IO{Reduce: cc.AllToOne, Aggregators: aggrs, Params: adio.Params{CB: cb, Pipeline: true}},
			op: cc.Sum{}})
	}
	return legs
}
