package experiments

import (
	"fmt"
	"sort"

	"repro/internal/adio"
	"repro/internal/asciichart"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/obs"
	"repro/internal/pfs"
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

// iterSample is one aggregated two-phase iteration: mean read and shuffle
// time across the aggregators that executed it — the two series of the
// paper's Figure 1. Bytes come in both flavors so the sample is internally
// consistent: meanBytes matches the per-aggregator means of read/shuffle,
// totalBytes is the raw sum across aggregators.
type iterSample struct {
	iter       int
	read       float64
	shuffle    float64
	meanBytes  float64
	totalBytes int64
}

// iterStats is Figure 1's aggregation of the per-iteration timings the
// two-phase loop hands its adio.Observer, across aggregators.
type iterStats struct {
	byIter map[int]*iterAccum

	readSeconds    float64
	shuffleSeconds float64
	iterations     int
	bytes          int64
}

type iterAccum struct {
	read, shuffle float64
	n             int
	bytes         int64
}

func newIterStats() *iterStats {
	return &iterStats{byIter: make(map[int]*iterAccum)}
}

// ObserveIter implements adio.Observer.
func (is *iterStats) ObserveIter(aggrIdx, iter int, readSec, shuffleSec float64, bytes int64) {
	acc := is.byIter[iter]
	if acc == nil {
		acc = &iterAccum{}
		is.byIter[iter] = acc
	}
	acc.read += readSec
	acc.shuffle += shuffleSec
	acc.n++
	acc.bytes += bytes
	is.readSeconds += readSec
	is.shuffleSeconds += shuffleSec
	is.iterations++
	is.bytes += bytes
}

// series returns the per-iteration mean read/shuffle times, sorted by
// iteration index.
func (is *iterStats) series() []iterSample {
	out := make([]iterSample, 0, len(is.byIter))
	for k, acc := range is.byIter {
		out = append(out, iterSample{
			iter:       k,
			read:       acc.read / float64(acc.n),
			shuffle:    acc.shuffle / float64(acc.n),
			meanBytes:  float64(acc.bytes) / float64(acc.n),
			totalBytes: acc.bytes,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].iter < out[j].iter })
	return out
}

// shuffleOverhead returns the shuffle share of total phase time — the
// paper's "~20% overhead" headline from Figure 1.
func (is *iterStats) shuffleOverhead() float64 {
	total := is.readSeconds + is.shuffleSeconds
	if total == 0 {
		return 0
	}
	return is.shuffleSeconds / total
}

// Fig1 reproduces the per-iteration read/shuffle profile of two-phase
// collective I/O (paper Figure 1) and its ~20% shuffle-overhead headline.
func Fig1(cfg Config) (*Table, error) {
	s := newFig1Setup(cfg)
	cl := newCluster(s.nranks, s.rpn, cfg.Obs)
	ds, id, err := climate.NewDataset4D(cl.FS(), s.dims, s.stripeCount, s.stripeSize)
	if err != nil {
		return nil, err
	}
	iters := newIterStats()
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
	series := iters.series()
	stride := len(series)/40 + 1
	var reads, shuffles []float64
	for i := 0; i < len(series); i += stride {
		sm := series[i]
		t.AddRow(fmt.Sprintf("%d", sm.iter), fmt.Sprintf("%.4f", sm.read), fmt.Sprintf("%.4f", sm.shuffle),
			fmt.Sprintf("%.2f", sm.meanBytes/(1<<20)))
		reads = append(reads, sm.read)
		shuffles = append(shuffles, sm.shuffle)
	}
	t.Chart = asciichart.Line([]asciichart.Series{
		{Name: "read (s)", Points: reads},
		{Name: "shuffle (s)", Points: shuffles},
	}, 64, 10)
	t.Notef("%d procs, %d aggregators, %d executed iterations, makespan %.2fs",
		s.nranks, len(s.aggrs), iters.iterations, makespan)
	t.Notef("total read %.2fs, total shuffle %.2fs across aggregators",
		iters.readSeconds, iters.shuffleSeconds)
	t.Notef("shuffle overhead = %.1f%% of phase time (paper: ~20%%)",
		100*iters.shuffleOverhead())
	return t, nil
}

// rankRead is how one rank reads its byte runs of the Figure 1 pattern.
type rankRead func(ctx *cluster.JobContext, r *mpi.Rank, f *pfs.File, runs []layout.Run) error

// collectiveRead is Figure 2's access: one non-blocking two-phase read.
func (s fig1Setup) collectiveRead() rankRead {
	cache := &adio.PlanCache{}
	return func(ctx *cluster.JobContext, r *mpi.Rank, f *pfs.File, runs []layout.Run) error {
		return adio.CollectiveRead(r, ctx.Comm(), ctx.Client(r), f,
			adio.Request{Runs: runs, ChargeOnly: true}, s.aggrs,
			adio.Params{CB: s.cb, Pipeline: true, PlanCache: cache})
	}
}

// independentRead is Figure 3's access: per-rank sieved reads.
func independentRead(ctx *cluster.JobContext, r *mpi.Rank, f *pfs.File, runs []layout.Run) error {
	return adio.IndependentRead(ctx.Client(r), f,
		adio.Request{Runs: runs, ChargeOnly: true}, adio.Params{SieveThreshold: 64 << 10})
}

// profiledRead runs the Figure 1 access pattern once through read on a fresh
// machine with its rank time profiled, and returns the machine and the
// makespan — Figures 2 and 3 differ only in how the ranks read.
func (s fig1Setup) profiledRead(name string, ot *obs.Tracer, read rankRead) (*cluster.Cluster, float64, error) {
	cl := newCluster(s.nranks, s.rpn, ot)
	ds, id, err := climate.NewDataset4D(cl.FS(), s.dims, s.stripeCount, s.stripeSize)
	if err != nil {
		return nil, 0, err
	}
	// The renderer strides, so one small bucket serves every scale.
	cl.ProfileRanks(0.05)
	makespan, err := cl.RunSPMD(name, func(ctx *cluster.JobContext, r *mpi.Rank) error {
		return read(ctx, r, ds.File(), s.byteRuns(ds, id, ctx.Comm().RankOf(r)))
	})
	return cl, makespan, err
}

// cpuProfileTable renders a run's rank time as the user/sys/wait rows of the
// paper's Figures 2-3.
func cpuProfileTable(id, title string, rt *obs.RankTime, until float64) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"t (s)", "user %", "sys %", "wait %"},
	}
	prof := rt.CPUProfile(until)
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
	t.Notef("%s over %.2fs makespan", rt.Summary(), until)
	return t
}

// Fig2 reproduces the CPU profile (user/sys/wait) during two-phase
// collective I/O (paper Figure 2).
func Fig2(cfg Config) (*Table, error) {
	s := newFig1Setup(cfg)
	cl, makespan, err := s.profiledRead("fig2", cfg.Obs, s.collectiveRead())
	if err != nil {
		return nil, err
	}
	t := cpuProfileTable("fig2", "CPU Profiling of Two-Phase Collective I/O", cl.RankTime(), makespan)
	t.Notef("aggregators stay busy (sys+wait-io) while non-aggregators mostly wait on the shuffle")
	return t, nil
}

// Fig3 reproduces the CPU profile during independent I/O (paper Figure 3):
// the same access pattern issued as per-rank sieved reads, dominated by I/O
// wait under OST contention.
func Fig3(cfg Config) (*Table, error) {
	s := newFig1Setup(cfg)
	cl, makespan, err := s.profiledRead("fig3", cfg.Obs, independentRead)
	if err != nil {
		return nil, err
	}
	rt := cl.RankTime()
	t := cpuProfileTable("fig3", "CPU Profiling of Independent I/O", rt, makespan)
	waitShare := (rt.Total(obs.WaitIO) + rt.Total(obs.WaitComm)) /
		(float64(s.nranks) * makespan) * 100
	t.Notef("wait share %.1f%% of core time (paper: independent I/O is wait-dominated)", waitShare)
	return t, nil
}
