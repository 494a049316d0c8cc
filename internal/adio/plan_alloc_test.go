package adio

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// allocatedBytes returns the bytes fn allocates on the heap, averaged over
// runs calls.
func allocatedBytes(runs int, fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&ms)
	return (ms.TotalAlloc - before) / uint64(runs)
}

// exactPlanBytes is the storage a plan's variable-size arrays need, to the
// byte: its pieces, expect entries, iterations and prefix sums, and the slice
// headers indexing them per aggregator and per owner.
func exactPlanBytes(pl *Plan) uint64 {
	var pieces, iters, entries int
	for _, its := range pl.Iters {
		iters += len(its)
		for _, it := range its {
			pieces += len(it.Pieces)
		}
	}
	for _, e := range pl.expect {
		entries += len(e)
	}
	owners := len(pl.reqs)
	hdr := int(unsafe.Sizeof([]int{}))
	return uint64(pieces*int(unsafe.Sizeof(Piece{})) +
		entries*int(unsafe.Sizeof(expectEntry{})) +
		iters*int(unsafe.Sizeof(Iter{})) +
		(pl.TotalRuns()+owners)*8 +
		(len(pl.Iters)+2*owners)*hdr)
}

// TestBuildPlanAllocBound: building a plan allocates a bounded number of
// times per aggregator, however many (aggregator, owner) pairs and pieces it
// holds, and within 1.25x of the exact storage of its pieces, expect index,
// iterations and prefix sums.
func TestBuildPlanAllocBound(t *testing.T) {
	const na = 8
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		owners int
		cb     int64
	}{
		{8, 1 << 20},  // few owners, few pieces
		{64, 1 << 20}, // 8x the (aggregator, owner) pairs
		{64, 1 << 12}, // and the runs split into many more pieces
	}
	var base float64
	for i, tc := range cases {
		reqs := make([][]layout.Run, tc.owners)
		for o := range reqs {
			reqs[o] = randRuns(rng, 1<<22, 100)
		}
		aggrs := SpreadAggregators(tc.owners, na)
		build := func() { BuildPlan(reqs, aggrs, tc.cb, 0) }
		allocs := testing.AllocsPerRun(20, build)
		t.Logf("%d owners, cb %d: %v allocations per plan", tc.owners, tc.cb, allocs)
		if i == 0 {
			base = allocs
		}
		if limit := float64(12 + 3*na); allocs > limit || allocs > base+1 {
			t.Errorf("%d owners, cb %d: %v allocations per plan, want at most %v and at most one more than %d owners' %v",
				tc.owners, tc.cb, allocs, limit, cases[0].owners, base)
		}
		if raceEnabled {
			continue
		}
		exact := exactPlanBytes(BuildPlan(reqs, aggrs, tc.cb, 0))
		got := allocatedBytes(20, build)
		t.Logf("%d owners, cb %d: %d bytes per plan, exact %d", tc.owners, tc.cb, got, exact)
		if got > exact*5/4 {
			t.Errorf("%d owners, cb %d: %d bytes per plan, want at most 1.25x the exact %d", tc.owners, tc.cb, got, exact)
		}
	}
}

// chargeOnlyReadBytes returns the bytes one charge-only collective read
// allocates on n ranks, each requesting the same four interleaved 512-byte
// runs, its ranks sharing a PlanCache as every production caller's do.
// rounds > 1 reads the hull in that many 512-byte-aligned bands.
func chargeOnlyReadBytes(t *testing.T, n, rounds int) uint64 {
	const chunk, per = 512, 4
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 8})
	fileSize := int64(n * chunk * per)
	fs := pfs.New(env, pfs.Params{NumOSTs: 8, DefaultStripeSize: 1 << 16})
	f := fs.Create("data", pfs.NewSynthBackend(fileSize, pattern), 8, 1<<16, 0)
	c := w.Comm()
	p := Params{CB: 64 << 10, PlanCache: &PlanCache{}}
	if rounds > 1 {
		p.RebalanceRounds, p.Align = rounds, chunk
	}
	aggrs := SpreadAggregators(n, 8)
	return allocatedBytes(1, func() {
		w.Go(func(r *mpi.Rank) {
			runs := make([]layout.Run, per)
			for k := range runs {
				runs[k] = layout.Run{Offset: int64((k*n + r.Rank()) * chunk), Length: chunk}
			}
			rq := Request{Runs: runs, ChargeOnly: true}
			if err := CollectiveRead(r, c, fs.Client(r.Proc(), r.Rank(), nil), f, rq, aggrs, p); err != nil {
				t.Error(err)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRequestExchangeAllocBound: the bytes a collective read allocates grow
// about linearly in the rank count for the same per-rank request — the
// exchanged offset lists, the plan and a rebalanced read's band windows exist
// once per call, not once per rank. Four times the ranks may cost at most
// five times the bytes; a copy of the exchanged lists, or of every owner's
// band window, per rank grows them quadratically and costs about nine.
func TestRequestExchangeAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so the bytes are not the code's")
	}
	for _, rounds := range []int{1, 3} {
		small, large := chargeOnlyReadBytes(t, 64, rounds), chargeOnlyReadBytes(t, 256, rounds)
		t.Logf("%d round(s): 64 ranks: %d bytes; 256 ranks: %d bytes (%.2fx)",
			rounds, small, large, float64(large)/float64(small))
		if large > 5*small {
			t.Errorf("%d round(s): a read on 256 ranks allocates %d bytes, %.2fx the %d on 64; want at most 5x",
				rounds, large, float64(large)/float64(small), small)
		}
	}
}
