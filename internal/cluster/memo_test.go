package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/layout"
	"repro/internal/mpi"
)

// newMemoCluster builds newCCCluster's machine with the result cache toggled.
func newMemoCluster(t *testing.T, ranks, maxConc int, memo bool) *Cluster {
	t.Helper()
	c := New(Spec{Ranks: ranks, RanksPerNode: 2, MaxConcurrent: maxConc, Memo: memo})
	ds, _, err := climate.NewDataset3D(c.FS(), []int64{16, 32, 32}, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterDataset("climate", ds)
	return c
}

func ccOpJob(name string, op cc.Op, red cc.ReduceMode, slab layout.Slab) CCJob {
	return CCJob{
		Name: name, Ranks: 4, Dataset: "climate", VarID: 0,
		Slab: slab, SplitDim: 0, Op: op, Reduce: red, SecPerElem: 10e-9,
	}
}

// memoWorkload is the shared cold/warm job mix: a sum donor over the whole
// variable, an identical duplicate (waiter), an exact-shape MinLoc and two
// contained-window order-invariant consumers (coalesced followers), a
// contained-window Sum that must NOT coalesce (order-sensitive, different
// shape), and a late duplicate of the donor (completed-cache hit when warm).
func memoWorkload(c *Cluster) []*CCResult {
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{16, 32, 32}}
	window := layout.Slab{Start: []int64{4, 8, 8}, Count: []int64{8, 16, 16}}
	crs := []*CCResult{
		c.SubmitCC(ccOpJob("donor-sum", cc.Sum{}, cc.AllToOne, whole)),
		c.SubmitCC(ccOpJob("dup-sum", cc.Sum{}, cc.AllToOne, whole)),
		c.SubmitCC(ccOpJob("exact-minloc", cc.MinLoc{}, cc.AllToOne, whole)),
		c.SubmitCC(ccOpJob("win-hist", cc.Histogram{Lo: 200, Hi: 320, Bins: 12}, cc.AllToOne, window)),
		c.SubmitCC(ccOpJob("win-min", cc.Min{}, cc.AllToOne, window)),
		c.SubmitCC(ccOpJob("win-sum", cc.Sum{}, cc.AllToOne, window)),
	}
	crs = append(crs, c.SubmitCCAt(1000, ccOpJob("late-dup-sum", cc.Sum{}, cc.AllToOne, whole)))
	return crs
}

// TestMemoColdVsWarmBitIdentical is the memoization property test: the same
// workload with the result cache on must produce, for every job, exactly the
// bits of the cold run — while serving four of the seven jobs without their
// own physical pass.
func TestMemoColdVsWarmBitIdentical(t *testing.T) {
	run := func(memo bool) ([]*CCResult, float64, MemoStats) {
		c := newMemoCluster(t, 4, 0, memo)
		crs := memoWorkload(c)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return crs, c.Now(), c.MemoStats()
	}
	cold, coldSpan, coldStats := run(false)
	warm, warmSpan, stats := run(true)

	if coldStats != (MemoStats{}) {
		t.Fatalf("memo-off cluster recorded memo activity: %+v", coldStats)
	}
	for i := range cold {
		name := cold[i].Job.Name
		if !cold[i].Valid() || !warm[i].Valid() {
			t.Fatalf("%s: cold valid=%v warm valid=%v (errs %v / %v)",
				name, cold[i].Valid(), warm[i].Valid(), cold[i].Err, warm[i].Err)
		}
		cb, wb := math.Float64bits(cold[i].Res.Value), math.Float64bits(warm[i].Res.Value)
		if cb != wb {
			t.Fatalf("%s: warm value %x != cold value %x", name, wb, cb)
		}
		if !reflect.DeepEqual(cold[i].Res.State, warm[i].Res.State) {
			t.Fatalf("%s: warm state %+v != cold state %+v",
				name, warm[i].Res.State, cold[i].Res.State)
		}
	}

	donor := warm[0].JobResult
	for i, wantDonor := range []bool{false, true, true, true, true, false, false} {
		got := warm[i].CoalescedWith
		if wantDonor && got != donor {
			t.Fatalf("%s: CoalescedWith = %v, want donor", warm[i].Job.Name, got)
		}
		if !wantDonor && got != nil {
			t.Fatalf("%s: CoalescedWith = %q, want nil", warm[i].Job.Name, got.Job.Name)
		}
	}
	if warm[6].CoalescedWith != nil || !warm[6].MemoHit {
		t.Fatalf("late duplicate: MemoHit=%v CoalescedWith=%v, want cache hit",
			warm[6].MemoHit, warm[6].CoalescedWith)
	}
	if warm[6].Duration() != 0 {
		t.Fatalf("memo hit occupied the machine for %v", warm[6].Duration())
	}

	want := MemoStats{Hits: 1, Waiters: 1, Coalesced: 3, Misses: 2}
	if stats.Hits != want.Hits || stats.Waiters != want.Waiters ||
		stats.Coalesced != want.Coalesced || stats.Misses != want.Misses {
		t.Fatalf("memo stats %+v, want counts %+v", stats, want)
	}
	if stats.BytesSaved <= 0 {
		t.Fatalf("BytesSaved = %d, want > 0", stats.BytesSaved)
	}
	if warmSpan >= coldSpan {
		t.Fatalf("warm makespan %v not better than cold %v", warmSpan, coldSpan)
	}
}

// TestMemoWaiterWhileDonorRunning covers the in-flight attach path: an
// identical job arriving after the donor was admitted but before it finishes
// must attach as a waiter and complete at the donor's completion time with
// bit-identical results. Run under -race this also exercises concurrent
// submission bookkeeping.
func TestMemoWaiterWhileDonorRunning(t *testing.T) {
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{16, 32, 32}}
	c := newMemoCluster(t, 4, 0, true)
	donor := c.SubmitCC(ccOpJob("donor", cc.Sum{}, cc.AllToOne, whole))
	// 0.1 ms in: the donor's read phase is still in flight.
	twin := c.SubmitCCAt(1e-4, ccOpJob("twin", cc.Sum{}, cc.AllToOne, whole))
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !donor.Valid() || !twin.Valid() {
		t.Fatalf("errs: donor %v twin %v", donor.Err, twin.Err)
	}
	if twin.CoalescedWith != donor.JobResult {
		t.Fatalf("twin.CoalescedWith = %v, want donor", twin.CoalescedWith)
	}
	if twin.End != donor.End {
		t.Fatalf("twin finished at %v, donor at %v — must coincide", twin.End, donor.End)
	}
	if donor.End <= 1e-4 {
		t.Fatal("donor finished before the twin arrived; waiter path not exercised")
	}
	if got, want := math.Float64bits(twin.Res.Value), math.Float64bits(donor.Res.Value); got != want {
		t.Fatalf("twin value %x != donor value %x", got, want)
	}
	if st := c.MemoStats(); st.Waiters != 1 || st.Misses != 1 {
		t.Fatalf("memo stats %+v, want 1 waiter / 1 miss", st)
	}
}

// TestCCResultValid covers the accessor's three regimes: never-run, dropped,
// and completed.
func TestCCResultValid(t *testing.T) {
	var empty CCResult
	if empty.Valid() {
		t.Fatal("zero CCResult must not be valid")
	}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{16, 32, 32}}
	c := newMemoCluster(t, 4, 1, false)
	ok := c.SubmitCC(ccOpJob("ok", cc.Sum{}, cc.AllToOne, whole))
	dropJob := ccOpJob("dropped", cc.Sum{}, cc.AllToOne, whole)
	dropJob.Deadline = 1e-9 // expires while queued behind "ok"
	dropped := c.SubmitCC(dropJob)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok.Valid() {
		t.Fatalf("completed job not valid: %v", ok.Err)
	}
	if dropped.Valid() {
		t.Fatal("deadline-dropped job must not be valid")
	}
	if dropped.Res.State != nil || dropped.Res.Value != 0 {
		t.Fatalf("dropped job has a result: %+v", dropped.Res)
	}
}

// TestMemoCapEviction: with Spec.MemoCap = 1, caching a second shape evicts
// the first, so a repeat of the first shape re-runs its physical pass instead
// of hitting — and still produces exactly the bits of an unbounded-cache run.
// Eviction is an occupancy guard, never a correctness event.
func TestMemoCapEviction(t *testing.T) {
	slabA := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{8, 16, 16}}
	slabB := layout.Slab{Start: []int64{8, 0, 0}, Count: []int64{8, 16, 16}}
	run := func(memoCap int) ([]*CCResult, MemoStats) {
		c := New(Spec{Ranks: 4, RanksPerNode: 2, Memo: true, MemoCap: memoCap})
		ds, _, err := climate.NewDataset3D(c.FS(), []int64{16, 32, 32}, 8, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		c.RegisterDataset("climate", ds)
		// Serial arrivals far apart: each job completes (and is cached)
		// before the next one is considered.
		crs := []*CCResult{
			c.SubmitCC(ccOpJob("a1", cc.Sum{}, cc.AllToOne, slabA)),
			c.SubmitCCAt(1000, ccOpJob("b1", cc.Sum{}, cc.AllToOne, slabB)),
			c.SubmitCCAt(2000, ccOpJob("a2", cc.Sum{}, cc.AllToOne, slabA)),
			c.SubmitCCAt(3000, ccOpJob("a3", cc.Sum{}, cc.AllToOne, slabA)),
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return crs, c.MemoStats()
	}

	unbounded, uStats := run(-1)
	capped, cStats := run(1)

	if uStats.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", uStats)
	}
	// Unbounded: a2 and a3 both hit a1's entry.
	if uStats.Hits != 2 || uStats.Misses != 2 {
		t.Fatalf("unbounded stats %+v, want 2 hits / 2 misses", uStats)
	}
	// Cap 1: caching b1 evicts a1, so a2 re-runs (re-inserting the shape and
	// evicting b1); a3 then hits a2's entry.
	if cStats.Evictions < 2 {
		t.Fatalf("capped stats %+v, want >= 2 evictions", cStats)
	}
	if cStats.Hits != 1 || cStats.Misses != 3 {
		t.Fatalf("capped stats %+v, want 1 hit / 3 misses", cStats)
	}
	if capped[2].MemoHit {
		t.Fatal("a2 hit the cache despite cap-1 eviction")
	}
	if !capped[3].MemoHit {
		t.Fatal("a3 missed: re-run a2 was not re-cached")
	}
	for i := range unbounded {
		name := capped[i].Job.Name
		if !unbounded[i].Valid() || !capped[i].Valid() {
			t.Fatalf("%s: unbounded err %v, capped err %v",
				name, unbounded[i].Err, capped[i].Err)
		}
		ub, cb := math.Float64bits(unbounded[i].Res.Value), math.Float64bits(capped[i].Res.Value)
		if ub != cb {
			t.Fatalf("%s: capped value %x != unbounded value %x", name, cb, ub)
		}
		if !reflect.DeepEqual(unbounded[i].Res.State, capped[i].Res.State) {
			t.Fatalf("%s: capped state differs from unbounded", name)
		}
	}
}

// registerMixDatasets registers one small dataset under the three names the
// harness's CC shapes draw from: memo keys and the donor index tell the
// names apart, and the mixes' pure-compute bodies read nothing.
func registerMixDatasets(t *testing.T, c *Cluster) {
	t.Helper()
	ds, _, err := climate.NewDataset3D(c.FS(), []int64{16, 32, 32}, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		c.RegisterDataset(name, ds)
	}
}

// genCCShapes draws a CC shape for each job of mix from a pool small enough
// that twins recur: three datasets, nested windows, rank counts 2 and 4,
// order-sensitive and order-invariant operators, both reduce modes, and a
// few blocking jobs.
func genCCShapes(rng *rand.Rand, mix []mixJob) []CCJob {
	slabs := []layout.Slab{
		{Start: []int64{0, 0, 0}, Count: []int64{16, 32, 32}},
		{Start: []int64{4, 8, 8}, Count: []int64{8, 16, 16}},
		{Start: []int64{6, 8, 8}, Count: []int64{4, 8, 8}},
	}
	ops := []cc.Op{cc.Sum{}, cc.Min{}, cc.MinLoc{}, cc.Histogram{Lo: 200, Hi: 320, Bins: 12}}
	out := make([]CCJob, len(mix))
	for i := range out {
		j := CCJob{
			Dataset: []string{"a", "b", "c"}[rng.Intn(3)],
			Slab:    slabs[rng.Intn(len(slabs))],
			Ranks:   2 << rng.Intn(2),
			Op:      ops[rng.Intn(len(ops))],
			Block:   rng.Intn(10) == 0,
		}
		if rng.Intn(5) == 0 {
			j.Reduce = cc.AllToAll
		}
		out[i] = j
	}
	return out
}

// submitMixCC queues harness job j as CC shape cj with j's name, deadline,
// priority, estimate and pure-compute body, through the path SubmitCC and
// SubmitCCAt share: the memo layer sees a CC job, the machine runs no data
// plane. The job's width is the shape's.
func submitMixCC(c *Cluster, s *Session, cj CCJob, j *Job, at float64) {
	cj.Name, cj.Deadline, cj.Priority, cj.EstCost = j.Name, j.Deadline, j.Priority, j.EstCost
	job, meta := c.prepareCC(cj)
	job.Main = j.Main
	jr := c.prepare(&job, at, meta)
	if at == 0 {
		c.enqueue(jr)
	} else {
		c.enqueueAt(jr)
	}
	meta.out.JobResult = jr
	if s != nil {
		jr.session = s
		s.results = append(s.results, jr)
	}
}

// TestSubmitCCPathsReachMemoIndex: a SubmitCC job at time 0 and a SubmitCCAt
// twin both enter the memo layer's (dataset, var) index, in arrival order,
// where the admitted donor's walk finds the twin.
func TestSubmitCCPathsReachMemoIndex(t *testing.T) {
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{16, 32, 32}}
	c := newMemoCluster(t, 4, 0, true)
	var indexed []*JobResult
	// The blocker holds every rank past the twin's arrival, then reads the
	// index before any CC job is admitted.
	c.Submit(&Job{Name: "blocker", Main: func(ctx *JobContext, r *mpi.Rank) error {
		r.Compute(1)
		if ctx.Comm().RankOf(r) == 0 {
			indexed = append(indexed, c.memo.byVar[dsVar{"climate", 0}]...)
		}
		return nil
	}})
	donor := c.SubmitCC(ccOpJob("donor", cc.Sum{}, cc.AllToOne, whole))
	twin := c.SubmitCCAt(0.5, ccOpJob("twin", cc.Sum{}, cc.AllToOne, whole))
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(indexed) != 2 || indexed[0] != donor.JobResult || indexed[1] != twin.JobResult {
		t.Fatalf("index held %d jobs, want [donor twin]", len(indexed))
	}
	if twin.CoalescedWith != donor.JobResult || MemoAttachWork(c) != 1 {
		t.Fatalf("twin.CoalescedWith = %v after %d attach calls, want the donor's walk to take it",
			twin.CoalescedWith, MemoAttachWork(c))
	}
}
