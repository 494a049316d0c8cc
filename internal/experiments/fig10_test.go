package experiments

import (
	"testing"

	"repro/internal/adio"
	"repro/internal/climate"
	"repro/internal/layout"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// TestFig10StripeArtifact pins why Figure 10's curve is not the paper's at
// -scale 1.0 (ROADMAP item 8(a)): how many OSTs a collective-buffer iteration
// reads. A time step of the variable is 1024 × 1024 float32, exactly one of
// the file's 4 MB stripes, and a point of p ranks reads p steps through
// ⌈p/24⌉ aggregators, one per node. So each aggregator's file domain is 24
// stripes, read one 4 MB buffer, one stripe, per iteration, and lock-stepped
// aggregators sit 24 stripes apart: iteration k of aggregator a reads OST
// (24a + k) mod 40, at most 40/gcd(24, 40) = 5 of the 40 OSTs however many
// aggregators there are. 24 and 48 ranks have one and two aggregators; at
// 1024 ranks the 43 domains are 1024/43 ≈ 23.8 stripes, so their offsets
// drift over all 40. The plans are adio.BuildPlan's over each rank's byte
// runs, as the CC leg builds them; nothing is simulated.
func TestFig10StripeArtifact(t *testing.T) {
	want := map[int]int{24: 1, 48: 2, 120: 5, 240: 5, 480: 5, 1024: 40}
	pts := fig10Points(Config{Scale: 1.0})
	if len(pts) != len(want) {
		t.Fatalf("Figure 10 has %d points, the test pins %d", len(pts), len(want))
	}
	for _, b := range pts {
		fs := pfs.New(sim.NewEnv(), pfs.Params{})
		ds, id, err := climate.NewDataset3D(fs, b.dims, 40, b.stripeSize)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([][]layout.Run, b.nranks)
		for r, s := range b.slabs {
			if reqs[r], err = ds.ByteRuns(id, s); err != nil {
				t.Fatal(err)
			}
		}
		pl := adio.BuildPlan(reqs, adio.SpreadAggregators(b.nranks, b.naggr), b.cb, 4)
		for k := 0; k < pl.MaxIters; k++ {
			osts := map[int]bool{}
			for a := range pl.Iters {
				if k < len(pl.Iters[a]) && !pl.Iters[a][k].Empty() {
					osts[ds.File().OSTIndex(pl.Iters[a][k].ReadLo)] = true
				}
			}
			if len(osts) != want[b.nranks] {
				t.Errorf("%d ranks, iteration %d of %d: reads %d distinct OSTs, want %d",
					b.nranks, k, pl.MaxIters, len(osts), want[b.nranks])
			}
		}
	}
}
