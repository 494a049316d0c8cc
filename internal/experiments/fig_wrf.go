package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/adio"
	"repro/internal/asciichart"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/layout"
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

	ntOf := func(gb float64) int64 { return max(int64(gb*byteScale*(1<<30)/float64(4*ny*nx)), 8) }
	// legs returns the traditional and CC legs of the analysis over nt time
	// steps at map cost spe. Unlike the benchmark's, this traditional leg
	// reads with the pipelined two-phase read (EXPERIMENTS.md, Figure 13).
	legs := func(nt int64, spe float64) (trad, ccl leg) {
		dims := []int64{nt, ny, nx}
		ccl = leg{name: "fig13", nranks: nranks, rpn: rpn,
			create: stormSLP, dims: dims, stripes: 40, stripeSize: 4 << 20,
			// Split south-north.
			slabs: climate.SplitAlongDim(layout.Slab{Start: make([]int64, 3), Count: dims}, 1, nranks),
			io: cc.IO{Reduce: cc.AllToOne, Aggregators: adio.DefaultAggregators(nranks, rpn),
				Params: adio.Params{CB: 4 << 20, Pipeline: true}, SecPerElem: spe},
			op: cc.MinLoc{}, // the Min-SLP task's operator
		}
		trad = ccl
		trad.io.Block = true
		return trad, ccl
	}

	// Calibrate the analysis cost at the smallest workload: the hurricane
	// scan is lighter than the climate kernels; fix computation:I/O ≈ 1:2.
	nt0 := ntOf(sizesGB[0])
	trad0, _ := legs(nt0, 0)
	_, speAt, err := cfg.calibrate(trad0, nt0*(ny/int64(nranks))*nx)
	if err != nil {
		return nil, err
	}
	spe := speAt(0.5)

	var sps []float64
	var barLabels []string
	var barVals []float64
	for _, gb := range sizesGB {
		tr, cr, err := cfg.compare(legs(ntOf(gb), spe))
		if err != nil {
			return nil, err
		}
		// Both legs must find the same eye, bit for bit.
		trLoc, _ := tr.root.State.(cc.Loc)
		loc, _ := cr.root.State.(cc.Loc)
		if !sameLoc(trLoc, loc) {
			return nil, fmt.Errorf("at %.0f GB the traditional leg found %+v, collective computing %+v",
				gb, trLoc, loc)
		}
		tTrad, tCC := tr.makespan, cr.makespan
		sp := tTrad / tCC
		sps = append(sps, sp)
		t.AddRow(fmt.Sprintf("%.0f", gb), secs(tTrad), secs(tCC), ratio(sp))
		barLabels = append(barLabels, fmt.Sprintf("MPI %.0fGB", gb), fmt.Sprintf("CC  %.0fGB", gb))
		barVals = append(barVals, tTrad, tCC)
		if loc.Valid {
			t.Notef("workload %.0fGB: min SLP %.1f hPa at (t=%d, y=%d, x=%d)",
				gb, loc.Val, loc.Coords[0], loc.Coords[1], loc.Coords[2])
		}
	}
	t.Chart = asciichart.Bars(barLabels, barVals, 48)
	t.Notef("mean speedup %.2fx (paper: ~1.45x)", mean(sps))
	t.Notef("real streamed bytes scaled by %.4g of the paper volumes", byteScale)
	return t, nil
}

// sameLoc reports whether a and b are the same location state bit for bit:
// the value's bits (so a NaN equals itself), Valid and every coordinate.
func sameLoc(a, b cc.Loc) bool {
	return math.Float64bits(a.Val) == math.Float64bits(b.Val) && a.Valid == b.Valid &&
		slices.Equal(a.Coords, b.Coords)
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
