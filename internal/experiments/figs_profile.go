package experiments

import (
	"fmt"
	"sort"

	"repro/internal/adio"
	"repro/internal/asciichart"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/obs"
)

// fig1Leg is the Figure 1 access as a charge-only leg (Figures 1-3 profile
// what reading costs and never look at the bytes): 72 processes on 6
// nodes of 12 cores, 6 aggregators per node, a 4-D climate dataset striped
// over 40 OSTs at 4 MB, a 720x10x100x100 (slowest-first) subset split over
// time, 4 MB collective buffers, non-blocking two-phase reads. Figures 2 and 3
// profile its rank time, and Figure 3 issues it as per-rank sieved reads.
func fig1Leg(cfg Config, id string) leg {
	cfg = cfg.Defaults()
	nranks, rpn, stripes := 72, 12, 40
	sub := climate.Paper4DSubset()
	// Scale the real data volume through the subset's slowest (time)
	// extent; the interleaved fastest-dimension split is what defines the
	// access pattern and stays at paper geometry.
	steps := int64(float64(sub.Count[0]) * cfg.Scale)
	if cfg.Quick {
		nranks, rpn, stripes = 12, 4, 8
		sub.Count[3] = 120 // 10 elements per rank, as in the paper
		steps = 2
	}
	sub.Count[0] = max(steps, 1)
	// "6 are aggregators on each node": the first half of each node's ranks.
	var aggrs []int
	for r := 0; r < nranks; r++ {
		if r%rpn < rpn/2 {
			aggrs = append(aggrs, r)
		}
	}
	l := leg{name: id, nranks: nranks, rpn: rpn, obs: cfg.Obs,
		create: climate.NewDataset4D, dims: climate.Paper4DDims(), stripes: stripes, stripeSize: 4 << 20,
		// Each process accesses a 10-element-wide interleaved slice of the
		// fastest dimension (100x100x10x10 of the subset).
		slabs:      climate.SplitAlongDim(sub, 3, nranks),
		io:         cc.IO{Aggregators: aggrs, Params: adio.Params{CB: 4 << 20, Pipeline: true}},
		chargeOnly: true}
	switch id {
	case "fig3":
		l.io.Mode, l.io.Params = cc.Independent, adio.Params{SieveThreshold: 64 << 10}
		fallthrough
	case "fig2":
		l.profile = true
	}
	return l
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
	l := fig1Leg(cfg, "fig1")
	iters := newIterStats()
	l.io.Params.Obs = iters
	run, err := runLeg(l)
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
		l.nranks, len(l.io.Aggregators), iters.iterations, run.makespan)
	t.Notef("total read %.2fs, total shuffle %.2fs across aggregators",
		iters.readSeconds, iters.shuffleSeconds)
	t.Notef("shuffle overhead = %.1f%% of phase time (paper: ~20%%)",
		100*iters.shuffleOverhead())
	return t, nil
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
	run, err := runLeg(fig1Leg(cfg, "fig2"))
	if err != nil {
		return nil, err
	}
	t := cpuProfileTable("fig2", "CPU Profiling of Two-Phase Collective I/O", run.cl.RankTime(), run.makespan)
	t.Notef("aggregators stay busy (sys+wait-io) while non-aggregators mostly wait on the shuffle")
	return t, nil
}

// Fig3 reproduces the CPU profile during independent I/O (paper Figure 3):
// the same access pattern issued as per-rank sieved reads, dominated by I/O
// wait under OST contention.
func Fig3(cfg Config) (*Table, error) {
	l := fig1Leg(cfg, "fig3")
	run, err := runLeg(l)
	if err != nil {
		return nil, err
	}
	rt := run.cl.RankTime()
	t := cpuProfileTable("fig3", "CPU Profiling of Independent I/O", rt, run.makespan)
	waitShare := (rt.Total(obs.WaitIO) + rt.Total(obs.WaitComm)) /
		(float64(l.nranks) * run.makespan) * 100
	t.Notef("wait share %.1f%% of core time (paper: independent I/O is wait-dominated)", waitShare)
	return t, nil
}
