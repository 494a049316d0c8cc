package cluster

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// computeJob is a job body burning sec virtual seconds per rank, with a
// barrier so the job ends together.
func computeJob(sec float64) func(ctx *JobContext, r *mpi.Rank) error {
	return func(ctx *JobContext, r *mpi.Rank) error {
		r.Compute(sec)
		ctx.Comm().Barrier(r)
		return nil
	}
}

func TestSequentialWarmWorld(t *testing.T) {
	c := New(Spec{Ranks: 4, RanksPerNode: 2, MaxConcurrent: 1})
	a := c.Submit(&Job{Name: "a", Main: computeJob(1)})
	b := c.Submit(&Job{Name: "b", Main: computeJob(1)})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != a || res[1] != b {
		t.Fatalf("results out of order: %v", res)
	}
	if a.Err != nil || b.Err != nil {
		t.Fatalf("job errors: %v %v", a.Err, b.Err)
	}
	if a.Start != 0 {
		t.Fatalf("a.Start = %v, want 0", a.Start)
	}
	if b.Start < a.End {
		t.Fatalf("serial cluster overlapped jobs: a=[%v,%v] b=[%v,%v]",
			a.Start, a.End, b.Start, b.End)
	}
	if got := c.Now(); got < 2 {
		t.Fatalf("makespan %v, want >= 2 (two serial 1s jobs)", got)
	}
}

func TestConcurrentDisjointSubsets(t *testing.T) {
	c := New(Spec{Ranks: 4, RanksPerNode: 2})
	var jrs []*JobResult
	for i := 0; i < 2; i++ {
		jrs = append(jrs, c.Submit(&Job{Name: "j", Ranks: 2, Main: computeJob(1)}))
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, jr := range jrs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if jr.Start != 0 {
			t.Fatalf("job %d started at %v, want 0 (both fit at once)", i, jr.Start)
		}
	}
	if got, want := jrs[0].Ranks, []int{0, 1}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("job 0 ranks %v, want lowest-numbered %v", got, want)
	}
	if got, want := jrs[1].Ranks, []int{2, 3}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("job 1 ranks %v, want %v", got, want)
	}
	if c.Now() >= 2 {
		t.Fatalf("makespan %v, want < 2 (jobs overlapped)", c.Now())
	}
}

// TestFIFOHeadBlocks: a wide job at the head must not be overtaken by a
// narrow job behind it, even when the narrow one would fit — and the time
// the blocked jobs spend queued must land in the queue-wait histogram.
func TestFIFOHeadBlocks(t *testing.T) {
	ot := obs.New()
	c := New(Spec{Ranks: 4, RanksPerNode: 2, Obs: ot})
	first := c.Submit(&Job{Name: "wide0", Ranks: 3, Main: computeJob(1)})
	wide := c.Submit(&Job{Name: "wide1", Ranks: 3, Main: computeJob(1)})
	narrow := c.Submit(&Job{Name: "narrow", Ranks: 1, Main: computeJob(1)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if wide.Start < first.End {
		t.Fatalf("wide1 started %v before wide0 finished %v", wide.Start, first.End)
	}
	if narrow.Start < wide.Start {
		t.Fatalf("narrow (submitted after wide1) overtook it: narrow=%v wide1=%v",
			narrow.Start, wide.Start)
	}
	// Telemetry of the blocking: one queue-wait observation per admission,
	// whose sum is exactly the virtual time the blocked jobs spent queued.
	h := ot.Metrics().FindHistogram("cluster_queue_wait_seconds")
	if h == nil {
		t.Fatal("no cluster_queue_wait_seconds histogram recorded")
	}
	if h.Count() != 3 {
		t.Fatalf("queue-wait observations = %d, want 3 (one per admitted job)", h.Count())
	}
	wantWait := wide.QueueWait() + narrow.QueueWait() // wide0 waited 0
	if h.Sum() != wantWait {
		t.Fatalf("queue-wait sum = %v, want %v (wide1 %v + narrow %v)",
			h.Sum(), wantWait, wide.QueueWait(), narrow.QueueWait())
	}
	if wide.QueueWait() <= 0 {
		t.Fatalf("wide1 queue wait %v, want > 0 (it was blocked behind wide0)", wide.QueueWait())
	}
}

func TestDeadlines(t *testing.T) {
	c := New(Spec{Ranks: 2, RanksPerNode: 2, MaxConcurrent: 1})
	long := c.Submit(&Job{Name: "long", Deadline: 10, Main: computeJob(2)})
	// Queued behind a 2s job with a 1s deadline: expires before admission.
	dropped := c.Submit(&Job{Name: "dropped", Deadline: 1, Main: computeJob(1)})
	// Admitted but finishes past its deadline.
	late := c.Submit(&Job{Name: "late", Deadline: 2.5, Main: computeJob(1)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if long.Err != nil || long.DeadlineMiss {
		t.Fatalf("long: err=%v miss=%v", long.Err, long.DeadlineMiss)
	}
	if !errors.Is(dropped.Err, ErrDeadlineExpired) || !dropped.DeadlineMiss {
		t.Fatalf("dropped: err=%v miss=%v, want ErrDeadlineExpired", dropped.Err, dropped.DeadlineMiss)
	}
	if late.Err != nil {
		t.Fatalf("late job should still run: %v", late.Err)
	}
	if !late.DeadlineMiss {
		t.Fatalf("late finished at %v with deadline %v after submit 0, want DeadlineMiss",
			late.End, late.Job.Deadline)
	}
}

func TestSubmitAtArrival(t *testing.T) {
	c := New(Spec{Ranks: 2, RanksPerNode: 2})
	jr := c.SubmitAt(5, &Job{Name: "later", Main: computeJob(1)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if jr.Submit != 5 || jr.Start != 5 {
		t.Fatalf("submit=%v start=%v, want 5/5", jr.Submit, jr.Start)
	}
	if jr.QueueWait() != 0 {
		t.Fatalf("queue wait %v, want 0", jr.QueueWait())
	}
}

func TestJobErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	c := New(Spec{Ranks: 2, RanksPerNode: 2})
	jr := c.Submit(&Job{Name: "fail", Main: func(ctx *JobContext, r *mpi.Rank) error {
		ctx.Comm().Barrier(r)
		if ctx.Comm().RankOf(r) == 1 {
			return boom
		}
		return nil
	}})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(jr.Err, boom) {
		t.Fatalf("jr.Err = %v, want wrapped boom", jr.Err)
	}
}

func TestPlanCacheSharedByKey(t *testing.T) {
	c := New(Spec{Ranks: 2, RanksPerNode: 2})
	if c.PlanCache("k") != c.PlanCache("k") {
		t.Fatal("same key must return the same cache")
	}
	if c.PlanCache("k") == c.PlanCache("k2") {
		t.Fatal("different keys must not share a cache")
	}
}

// newCCCluster builds a small cluster with a registered climate dataset.
func newCCCluster(t *testing.T, ranks, maxConc int) *Cluster {
	t.Helper()
	c := New(Spec{Ranks: ranks, RanksPerNode: 2, MaxConcurrent: maxConc})
	ds, varid, err := climate.NewDataset3D(c.FS(), []int64{16, 32, 32}, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if varid != 0 {
		t.Fatalf("varid %d, want 0", varid)
	}
	c.RegisterDataset("climate", ds)
	return c
}

func ccSumJob(name string, ranks int, tstart, tcount int64) CCJob {
	return CCJob{
		Name: name, Ranks: ranks, Dataset: "climate", VarID: 0,
		Slab: layout.Slab{
			Start: []int64{tstart, 0, 0},
			Count: []int64{tcount, 32, 32},
		},
		SplitDim: 0, Op: cc.Sum{}, Reduce: cc.AllToOne,
		SecPerElem: 10e-9,
	}
}

// a2aSumJob is ccSumJob under all-to-all reduction: float64 partials are
// shuffled to owners and folded there.
func a2aSumJob(name string, ranks int, tstart, tcount int64) CCJob {
	j := ccSumJob(name, ranks, tstart, tcount)
	j.Reduce = cc.AllToAll
	return j
}

// TestCCJobsConcurrentBitIdentical: CC sum jobs on disjoint halves of the
// cluster must produce, concurrently, bit-identical values to their solo runs
// — and finish sooner than serialized. The all-to-all pair is the regression
// for the sender-rank fold order: float64 merges under AllToAll must be
// bit-identical across solo, serial, and concurrent executions.
func TestCCJobsConcurrentBitIdentical(t *testing.T) {
	jobs := []CCJob{
		ccSumJob("sum0", 2, 0, 8),
		ccSumJob("sum1", 2, 8, 8),
		a2aSumJob("a2a0", 2, 0, 8),
		a2aSumJob("a2a1", 2, 8, 8),
	}

	solo := make([]uint64, len(jobs))
	for i, j := range jobs {
		c := newCCCluster(t, 2, 0)
		cr := c.Session("solo").SubmitCC(j)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if cr.Err != nil {
			t.Fatal(cr.Err)
		}
		solo[i] = math.Float64bits(cr.Res.Value)
	}

	run := func(maxConc int) (vals []uint64, makespan float64) {
		c := newCCCluster(t, 4, maxConc)
		s := c.Session("mixed")
		var crs []*CCResult
		for _, j := range jobs {
			crs = append(crs, s.SubmitCC(j))
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		for _, cr := range crs {
			if cr.Err != nil {
				t.Fatal(cr.Err)
			}
			vals = append(vals, math.Float64bits(cr.Res.Value))
		}
		var mapped int64
		for _, jr := range s.Results() {
			mapped += jr.Stats.MapElements
		}
		if mapped == 0 {
			t.Fatal("the session's jobs recorded no map work")
		}
		return vals, c.Now()
	}

	serialVals, serialSpan := run(1)
	concVals, concSpan := run(0)
	for i := range jobs {
		if serialVals[i] != solo[i] {
			t.Fatalf("job %d serial value %x != solo %x", i, serialVals[i], solo[i])
		}
		if concVals[i] != solo[i] {
			t.Fatalf("job %d concurrent value %x != solo %x", i, concVals[i], solo[i])
		}
	}
	if concSpan >= serialSpan {
		t.Fatalf("concurrent makespan %v not better than serial %v", concSpan, serialSpan)
	}
}

// TestSchedulerDeterminism: the same spec and job list produce bit-identical
// per-job results, timings, and makespan across runs.
func TestSchedulerDeterminism(t *testing.T) {
	type snap struct {
		vals         []uint64
		starts, ends []float64
		makespan     float64
	}
	once := func() snap {
		c := newCCCluster(t, 4, 0)
		s := c.Session("det")
		crs := []*CCResult{
			s.SubmitCC(ccSumJob("a", 2, 0, 8)),
			s.SubmitCC(ccSumJob("b", 2, 8, 8)),
			s.SubmitCC(ccSumJob("c", 4, 0, 16)),
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var sn snap
		for _, cr := range crs {
			if cr.Err != nil {
				t.Fatal(cr.Err)
			}
			sn.vals = append(sn.vals, math.Float64bits(cr.Res.Value))
			sn.starts = append(sn.starts, cr.Start)
			sn.ends = append(sn.ends, cr.End)
		}
		sn.makespan = c.Now()
		return sn
	}
	a, b := once(), once()
	if a.makespan != b.makespan {
		t.Fatalf("makespan differs: %v vs %v", a.makespan, b.makespan)
	}
	for i := range a.vals {
		if a.vals[i] != b.vals[i] {
			t.Fatalf("job %d value differs: %x vs %x", i, a.vals[i], b.vals[i])
		}
		if a.starts[i] != b.starts[i] || a.ends[i] != b.ends[i] {
			t.Fatalf("job %d timing differs: [%v,%v] vs [%v,%v]",
				i, a.starts[i], a.ends[i], b.starts[i], b.ends[i])
		}
	}
}
