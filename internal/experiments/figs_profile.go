package experiments

import (
	"fmt"

	"repro/internal/adio"
	"repro/internal/asciichart"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/trace"
)

// fig1Setup is the Figure 1 configuration: 72 processes on 6 nodes of 12
// cores, 6 aggregators per node, a 4-D climate dataset striped over 40 OSTs
// at 4 MB, a 720x10x100x100 (slowest-first) subset split over time, 4 MB
// collective buffers, non-blocking two-phase reads.
type fig1Setup struct {
	nranks, rpn int
	aggrs       []int
	dims        []int64
	perRank     []layout.Slab
	stripeCount int
	stripeSize  int64
	cb          int64
}

func newFig1Setup(cfg Config) fig1Setup {
	cfg = cfg.Defaults()
	s := fig1Setup{
		nranks: 72, rpn: 12,
		dims:        climate.Paper4DDims(),
		stripeCount: 40, stripeSize: 4 << 20, cb: 4 << 20,
	}
	sub := climate.Paper4DSubset()
	// Scale the real data volume through the subset's slowest (time)
	// extent; the interleaved fastest-dimension split is what defines the
	// access pattern and stays at paper geometry.
	steps := int64(float64(sub.Count[0]) * cfg.Scale)
	if cfg.Quick {
		s.nranks, s.rpn, s.stripeCount = 12, 4, 8
		sub.Count[3] = 120 // 10 elements per rank, as in the paper
		steps = 2
	}
	if steps < 1 {
		steps = 1
	}
	sub.Count[0] = steps
	// Each process accesses a 10-element-wide interleaved slice of the
	// fastest dimension (100x100x10x10 of the subset).
	s.perRank = climate.SplitAlongDim(sub, 3, s.nranks)
	// "6 are aggregators on each node": the first half of each node's ranks.
	for r := 0; r < s.nranks; r++ {
		if r%s.rpn < s.rpn/2 {
			s.aggrs = append(s.aggrs, r)
		}
	}
	return s
}

// byteRuns returns each rank's byte runs against the dataset. Figures 1-3
// profile what reading them costs and never look at the bytes, so their
// requests are charge-only.
func (s fig1Setup) byteRuns(ds *ncfile.Dataset, id, rank int) []layout.Run {
	runs, err := ds.ByteRuns(id, s.perRank[rank])
	if err != nil {
		panic(err)
	}
	return runs
}

// Fig1 reproduces the per-iteration read/shuffle profile of two-phase
// collective I/O (paper Figure 1) and its ~20% shuffle-overhead headline.
func Fig1(cfg Config) (*Table, error) {
	s := newFig1Setup(cfg)
	cl := newCluster(s.nranks, s.rpn, 0, cfg.Obs)
	ds, id, err := climate.NewDataset4D(cl.FS(), s.dims, s.stripeCount, s.stripeSize)
	if err != nil {
		return nil, err
	}
	iters := metrics.NewIterStats()
	cache := &adio.PlanCache{}
	makespan, err := cl.RunSPMD("fig1", func(ctx *cluster.JobContext, r *mpi.Rank) error {
		runs := s.byteRuns(ds, id, ctx.Comm().RankOf(r))
		return adio.CollectiveRead(r, ctx.Comm(), ctx.Client(r), ds.File(),
			adio.Request{Runs: runs, ChargeOnly: true}, s.aggrs,
			adio.Params{CB: s.cb, Pipeline: true, Obs: iters, PlanCache: cache})
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig1",
		Title:   "I/O Profiling of Two-Phase Collective I/O (read vs shuffle per iteration)",
		Headers: []string{"iteration", "read (s)", "shuffle (s)", "mean MB"},
	}
	series := iters.Series()
	stride := len(series)/40 + 1
	var reads, shuffles []float64
	for i := 0; i < len(series); i += stride {
		sm := series[i]
		t.AddRow(fmt.Sprintf("%d", sm.Iter), fmt.Sprintf("%.4f", sm.Read), fmt.Sprintf("%.4f", sm.Shuffle),
			fmt.Sprintf("%.2f", sm.MeanBytes/(1<<20)))
		reads = append(reads, sm.Read)
		shuffles = append(shuffles, sm.Shuffle)
	}
	t.Chart = asciichart.Line([]asciichart.Series{
		{Name: "read (s)", Points: reads},
		{Name: "shuffle (s)", Points: shuffles},
	}, 64, 10)
	t.Notef("%d procs, %d aggregators, %d executed iterations, makespan %.2fs",
		s.nranks, len(s.aggrs), iters.Iterations, makespan)
	t.Notef("total read %.2fs, total shuffle %.2fs across aggregators",
		iters.ReadSeconds, iters.ShuffleSeconds)
	t.Notef("shuffle overhead = %.1f%% of phase time (paper: ~20%%)",
		100*iters.ShuffleOverhead())
	return t, nil
}

// cpuProfileTable renders a Timeline as the user/sys/wait rows of the
// paper's Figures 2-3.
func cpuProfileTable(id, title string, tl *metrics.Timeline, until float64) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"t (s)", "user %", "sys %", "wait %"},
	}
	prof := tl.CPUProfile(until)
	stride := len(prof)/16 + 1
	var user, sys, wait []float64
	for i := 0; i < len(prof); i += stride {
		p := prof[i]
		t.AddRow(fmt.Sprintf("%.2f", p.T), fmt.Sprintf("%.1f", p.User),
			fmt.Sprintf("%.1f", p.SysPct), fmt.Sprintf("%.1f", p.Wait))
		user = append(user, p.User)
		sys = append(sys, p.SysPct)
		wait = append(wait, p.Wait)
	}
	t.Chart = asciichart.Line([]asciichart.Series{
		{Name: "user %", Points: user},
		{Name: "sys %", Points: sys},
		{Name: "wait %", Points: wait},
	}, 64, 10)
	return t
}

// Fig2 reproduces the CPU profile (user/sys/wait) during two-phase
// collective I/O (paper Figure 2).
func Fig2(cfg Config) (*Table, error) {
	s := newFig1Setup(cfg)
	cl := newCluster(s.nranks, s.rpn, 0, cfg.Obs)
	ds, id, err := climate.NewDataset4D(cl.FS(), s.dims, s.stripeCount, s.stripeSize)
	if err != nil {
		return nil, err
	}
	cache := &adio.PlanCache{}
	// Timeline needs a bucket width up front, so use a small one and let the
	// renderer stride; installed after synthesis so only the run is profiled.
	tl := cl.InstallTimeline(0.05)
	makespan, err := cl.RunSPMD("fig2", func(ctx *cluster.JobContext, r *mpi.Rank) error {
		runs := s.byteRuns(ds, id, ctx.Comm().RankOf(r))
		return adio.CollectiveRead(r, ctx.Comm(), ctx.Client(r), ds.File(),
			adio.Request{Runs: runs, ChargeOnly: true}, s.aggrs,
			adio.Params{CB: s.cb, Pipeline: true, PlanCache: cache})
	})
	if err != nil {
		return nil, err
	}
	t := cpuProfileTable("fig2", "CPU Profiling of Two-Phase Collective I/O", tl, makespan)
	t.Notef("%s over %.2fs makespan", tl.Summary(), makespan)
	t.Notef("aggregators stay busy (sys+wait-io) while non-aggregators mostly wait on the shuffle")
	return t, nil
}

// Fig3 reproduces the CPU profile during independent I/O (paper Figure 3):
// the same access pattern issued as per-rank sieved reads, dominated by I/O
// wait under OST contention.
func Fig3(cfg Config) (*Table, error) {
	s := newFig1Setup(cfg)
	cl := newCluster(s.nranks, s.rpn, 0, cfg.Obs)
	ds, id, err := climate.NewDataset4D(cl.FS(), s.dims, s.stripeCount, s.stripeSize)
	if err != nil {
		return nil, err
	}
	tl := cl.InstallTimeline(0.05)
	makespan, err := cl.RunSPMD("fig3", func(ctx *cluster.JobContext, r *mpi.Rank) error {
		runs := s.byteRuns(ds, id, ctx.Comm().RankOf(r))
		return adio.IndependentRead(ctx.Client(r), ds.File(),
			adio.Request{Runs: runs, ChargeOnly: true}, adio.Params{SieveThreshold: 64 << 10})
	})
	if err != nil {
		return nil, err
	}
	t := cpuProfileTable("fig3", "CPU Profiling of Independent I/O", tl, makespan)
	t.Notef("%s over %.2fs makespan", tl.Summary(), makespan)
	waitShare := (tl.Total(trace.WaitIO) + tl.Total(trace.WaitComm)) /
		(float64(s.nranks) * makespan) * 100
	t.Notef("wait share %.1f%% of core time (paper: independent I/O is wait-dominated)", waitShare)
	return t, nil
}
