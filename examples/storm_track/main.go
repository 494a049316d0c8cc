// Storm track extraction with iterative operations.
//
// The paper's conclusion lists "support the iterative operations" as future
// work; this repository implements it as the cc.PerIndex operator
// combinator. One object I/O computes the minimum sea-level pressure of
// *every* time step — the hurricane's track and intensity curve — while
// still shuffling only partial results. The extracted track is verified
// against the storm model's analytic eye positions.
//
// Run: go run ./examples/storm_track
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/wrf"
)

const nprocs = 32

func main() {
	cl := cluster.New(cluster.Spec{Ranks: nprocs, RanksPerNode: 8})
	storm := wrf.DefaultStorm(64, 384, 384)
	d, err := wrf.NewDataset(cl.FS(), storm, 40, 4<<20)
	if err != nil {
		log.Fatal(err)
	}
	slabs := climate.SplitAlongDim(d.FullSlab(), 0, nprocs)
	op := cc.PerIndex{Inner: cc.MinLoc{}, Keys: storm.NT}

	var track []cc.IndexedValue
	if _, err := cl.RunSPMD("storm-track", func(ctx *cluster.JobContext, r *mpi.Rank) error {
		res, err := cc.ObjectGetVaraSession(ctx, r, cc.IO{
			DS: d.DS, VarID: d.SLPVar, Slab: slabs[ctx.Comm().RankOf(r)],
			Reduce:     cc.AllToOne,
			Params:     adio.Params{CB: 4 << 20, Pipeline: true},
			SecPerElem: 5e-9,
		}, op)
		if err != nil {
			return err
		}
		if res.Root {
			track = op.Series(res.State)
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hurricane track from one collective-computing pass (%d time steps)\n\n", storm.NT)
	fmt.Printf("%-6s %-12s %-12s %s\n", "t", "min SLP", "eye (y,x)", "model eye")
	var worst float64
	for i := 0; i < len(track); i += 8 {
		pt := track[i]
		loc := pt.State.(cc.Loc)
		ey, ex := modelEye(storm, float64(pt.Index))
		fmt.Printf("%-6d %-12.1f (%4d,%4d)  (%4.0f,%4.0f)\n",
			pt.Index, pt.Value, loc.Coords[1], loc.Coords[2], ey, ex)
	}
	for _, pt := range track {
		loc := pt.State.(cc.Loc)
		ey, ex := modelEye(storm, float64(pt.Index))
		dev := math.Hypot(float64(loc.Coords[1])-ey, float64(loc.Coords[2])-ex)
		if dev > worst {
			worst = dev
		}
	}
	fmt.Printf("\nworst deviation from the analytic track: %.2f cells\n", worst)
	if worst > 1.0 {
		log.Fatal("track extraction diverged from the storm model")
	}
	fmt.Println("track matches the storm model to within one grid cell")
	// Intensity must deepen monotonically in this storm model.
	if track[0].Value <= track[len(track)-1].Value {
		log.Fatal("storm did not deepen over time")
	}
	fmt.Printf("intensity deepened %.1f -> %.1f hPa over the simulation\n",
		track[0].Value, track[len(track)-1].Value)
}

// modelEye mirrors the storm model's eye position (wrf.Storm keeps it
// internal; the track test recomputes it from the public fields).
func modelEye(s wrf.Storm, t float64) (y, x float64) {
	return s.Y0 + s.VY*t, s.X0 + s.VX*t
}
