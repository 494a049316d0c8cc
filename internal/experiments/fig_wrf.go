package experiments

import (
	"fmt"

	"repro/internal/adio"
	"repro/internal/asciichart"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/wrf"
)

// Fig13 reproduces the WRF application test (paper Figure 13 / §IV-C):
// the "Min Sea-Level Pressure" hurricane analysis at increasing workload
// sizes, traditional MPI vs collective computing, with the paper reporting
// a ~1.45x speedup. (The "Max 10m wind speed" task behaves identically —
// the paper plots only the first; `ccrun` can run both.)
func Fig13(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	nranks, rpn := 96, 24
	ny, nx := int64(1024), int64(1024)
	// Paper workloads: 100/200/400 GB. Scaled by Scale/25 of real streamed
	// data (documented in EXPERIMENTS.md).
	sizesGB := []float64{100, 200, 400}
	byteScale := cfg.Scale / 25
	if cfg.Quick {
		nranks, rpn = 8, 4
		ny, nx = 128, 128
		sizesGB = []float64{100, 200}
		byteScale = 1.0 / (64 * 1024)
	}

	t := &Table{
		ID:      "fig13",
		Title:   "WRF Performance with Collective Computing (Min Sea-Level Pressure)",
		Headers: []string{"workload (GB)", "traditional (s)", "collective computing (s)", "speedup"},
	}

	runOne := func(nt int64, block bool, spe float64) (float64, cc.Result, error) {
		cl := newCluster(nranks, rpn, nil)
		storm := wrf.DefaultStorm(nt, ny, nx)
		d, err := wrf.NewDataset(cl.FS(), storm, 40, 4<<20)
		if err != nil {
			return 0, cc.Result{}, err
		}
		slabs := climate.SplitAlongDim(d.FullSlab(), 1, nranks) // split south-north
		task := d.MinSLPTask()
		cache := &adio.PlanCache{}
		var rootRes cc.Result
		makespan, err := cl.RunSPMD("wrf-minslp", func(ctx *cluster.JobContext, r *mpi.Rank) error {
			res, err := cc.ObjectGetVara(r, ctx.Comm(), ctx.Client(r), cc.IO{
				DS: d.DS, VarID: task.VarID, Slab: slabs[ctx.Comm().RankOf(r)],
				Block: block, Reduce: cc.AllToOne,
				Params:     adio.Params{CB: 4 << 20, Pipeline: true, PlanCache: cache},
				SecPerElem: spe,
			}, task.Op)
			if res.Root {
				rootRes = res
			}
			return err
		})
		return makespan, rootRes, err
	}

	ntOf := func(gb float64) int64 {
		nt := int64(gb * byteScale * (1 << 30) / float64(4*ny*nx))
		if nt < 8 {
			nt = 8
		}
		return nt
	}

	// Calibrate the analysis cost at the smallest workload: the hurricane
	// scan is lighter than the climate kernels; fix computation:I/O ≈ 1:2.
	nt0 := ntOf(sizesGB[0])
	tIO, _, err := runOne(nt0, true, 0)
	if err != nil {
		return nil, err
	}
	perRankElems := float64(nt0 * (ny / int64(nranks)) * nx)
	spe := 0.5 * tIO / perRankElems

	var sps []float64
	var barLabels []string
	var barVals []float64
	for _, gb := range sizesGB {
		nt := ntOf(gb)
		tTrad, _, err := runOne(nt, true, spe)
		if err != nil {
			return nil, err
		}
		tCC, res, err := runOne(nt, false, spe)
		if err != nil {
			return nil, err
		}
		sp := tTrad / tCC
		sps = append(sps, sp)
		t.AddRow(fmt.Sprintf("%.0f", gb), secs(tTrad), secs(tCC), ratio(sp))
		barLabels = append(barLabels, fmt.Sprintf("MPI %.0fGB", gb), fmt.Sprintf("CC  %.0fGB", gb))
		barVals = append(barVals, tTrad, tCC)
		if loc, ok := res.State.(cc.Loc); ok && loc.Valid {
			t.Notef("workload %.0fGB: min SLP %.1f hPa at (t=%d, y=%d, x=%d)",
				gb, loc.Val, loc.Coords[0], loc.Coords[1], loc.Coords[2])
		}
	}
	t.Chart = asciichart.Bars(barLabels, barVals, 48)
	t.Notef("mean speedup %.2fx (paper: ~1.45x)", mean(sps))
	t.Notef("real streamed bytes scaled by %.4g of the paper volumes", byteScale)
	return t, nil
}

// Runner is one experiment entry in the registry.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "INCITE data requirements (Table I)", func(Config) (*Table, error) { return TableI(), nil }},
		{"fig1", "Two-phase collective I/O profile (Figure 1)", Fig1},
		{"fig2", "CPU profile, collective I/O (Figure 2)", Fig2},
		{"fig3", "CPU profile, independent I/O (Figure 3)", Fig3},
		{"fig9", "Speedup vs computation:I/O ratio (Figure 9)", Fig9},
		{"fig10", "Weak-scaling speedup (Figure 10)", Fig10},
		{"fig11", "Reduction overhead (Figure 11)", Fig11},
		{"fig12", "Metadata vs collective buffer size (Figure 12)", Fig12},
		{"fig13", "WRF hurricane analysis (Figure 13)", Fig13},
		{"faults", "Degradation/recovery under fault plans (robustness ablation)", FigFaults},
		{"jobs", "Concurrent mixed analyses on one cluster (scheduling ablation)", Jobs},
		{"sched-policies", "Scheduling policy ablation (fifo / backfill / priority / fairshare)", SchedPolicies},
		{"multiuser", "Multi-user serving with result memoization + read coalescing", Multiuser},
		{"profile-jobs", "Per-job phase breakdown + critical path (observability)", ProfileJobs},
		{"explain", "Decision-trace counterfactual what-if replay + wait attribution", Explain},
		{"workload", "Generative multi-tenant workload plane + versioned trace replay", Workload},
		{"report", "Offline run-report analyzer (events + decisions + series)", ReportExp},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
