// WRF hurricane analysis: the paper's application test (§IV-C), runnable.
//
// 64 ranks analyze a synthetic hurricane simulation: the "Min Sea-Level
// Pressure (hPa)" and "Max 10m wind speed (knots)" tasks the paper extracts
// from WRF, executed as object I/Os with MinLoc/MaxLoc operators. The
// logical-map machinery turns byte-level collective I/O into
// coordinate-level answers: you get *where* the eye is, not just how deep.
// All three analyses run as jobs on one warm cluster over one shared
// dataset; results are cross-checked against the traditional workflow.
//
// Run: go run ./examples/wrf_hurricane
package main

import (
	"fmt"
	"log"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/wrf"
)

const nprocs = 64

func main() {
	fmt.Println("WRF hurricane simulation analysis (collective computing)")
	fmt.Println()

	cl := cluster.New(cluster.Spec{Ranks: nprocs, RanksPerNode: 16, MaxConcurrent: 1})
	storm := wrf.DefaultStorm(256, 512, 512) // ~256 MB of float32 fields
	d, err := wrf.NewDataset(cl.FS(), storm, 40, 4<<20)
	if err != nil {
		log.Fatal(err)
	}
	slabs := climate.SplitAlongDim(d.FullSlab(), 0, nprocs)
	sess := cl.Session("hurricane")

	// Each analysis is one job definition; eyes[i] is filled from the root.
	eyes := make([]cc.Loc, 3)
	analyze := func(i int, tk wrf.Task, block bool) *cluster.JobResult {
		return sess.Submit(&cluster.Job{Name: tk.Name, Main: func(ctx *cluster.JobContext, r *mpi.Rank) error {
			res, err := cc.ObjectGetVaraSession(ctx, r, cc.IO{
				DS: d.DS, VarID: tk.VarID, Slab: slabs[ctx.Comm().RankOf(r)],
				Block:      block,
				Reduce:     cc.AllToAll, // every rank keeps its own partial, then final reduce
				Params:     adio.Params{CB: 4 << 20, Pipeline: true},
				SecPerElem: 5e-9,
			}, tk.Op)
			if err == nil && res.Root {
				eyes[i] = res.State.(cc.Loc)
			}
			return err
		}})
	}
	jSLP := analyze(0, d.MinSLPTask(), false)
	jWind := analyze(1, d.MaxWindTask(), false)
	jTrad := analyze(2, d.MinSLPTask(), true)

	if _, err := cl.Run(); err != nil {
		log.Fatal(err)
	}
	for _, jr := range sess.Results() {
		if jr.Err != nil {
			log.Fatalf("%s: %v", jr.Job.Name, jr.Err)
		}
	}

	slp, wind, slpTrad := eyes[0], eyes[1], eyes[2]
	fmt.Printf("Min Sea-Level Pressure: %.1f hPa at t=%d, grid (%d, %d)  [%.3fs virtual]\n",
		slp.Val, slp.Coords[0], slp.Coords[1], slp.Coords[2], jSLP.Duration())
	fmt.Printf("Max 10m wind speed:     %.1f knots at t=%d, grid (%d, %d)  [%.3fs virtual]\n",
		wind.Val, wind.Coords[0], wind.Coords[1], wind.Coords[2], jWind.Duration())

	// The eye of the storm: the pressure minimum and the wind maximum should
	// be close (the wind ring surrounds the eye).
	dy := slp.Coords[1] - wind.Coords[1]
	dx := slp.Coords[2] - wind.Coords[2]
	fmt.Printf("eye/ring offset:        (%d, %d) cells\n", dy, dx)

	// Cross-check against the traditional workflow.
	if slpTrad.Val != slp.Val || slpTrad.Coords[0] != slp.Coords[0] {
		log.Fatalf("traditional and collective computing disagree: %+v vs %+v", slpTrad, slp)
	}
	fmt.Printf("\ntraditional workflow agrees; CC speedup on MinSLP: %.2fx (%.3fs -> %.3fs)\n",
		jTrad.Duration()/jSLP.Duration(), jTrad.Duration(), jSLP.Duration())
}
