package cluster

import (
	"fmt"
	"strconv"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/layout"
	"repro/internal/mpi"
)

// CCJob is a declarative collective-computing analysis: one global slab of a
// registered dataset, split across the job's ranks along SplitDim, reduced by
// Op. It is the job shape the paper's workloads (sum, histogram, minloc over
// climate variables) all share, lifted out of the per-example boilerplate.
type CCJob struct {
	Name     string
	Ranks    int     // 0 = all
	Deadline float64 // seconds after submit; 0 = none
	Priority int     // scheduling priority (see Job.Priority)
	EstCost  float64 // estimated service seconds (see Job.EstCost)
	Class    string  // SLO class label for telemetry (see Job.Class)
	// Dataset names a dataset registered with Cluster.RegisterDataset.
	Dataset string
	VarID   int
	// Slab is the global access region; each rank reads its share after an
	// even split along SplitDim.
	Slab     layout.Slab
	SplitDim int
	Op       cc.Op
	// Block disables collective computing (the traditional baseline).
	Block bool
	// Reduce selects the intermediate reduction mode. Both modes are
	// bit-deterministic, even with concurrent jobs: AllToOne merges in
	// plan-determined order at the root, and AllToAll folds shuffled partials
	// in sender-rank order, so float64 results are bit-identical to a solo
	// run under either mode.
	Reduce cc.ReduceMode
	// SecPerElem is the map's virtual CPU cost per element.
	SecPerElem float64
	// CB is the collective buffer size (0 = 4 MiB).
	CB int64
}

// CCResult extends JobResult with the analysis result captured from the
// reduction root.
type CCResult struct {
	*JobResult
	// Res is the root rank's cc.Result. Check Valid before reading it: Res
	// stays zero-valued for deadline-dropped and errored jobs.
	Res cc.Result
}

// Valid reports whether Res holds the job's analysis result: the job
// completed without error — by running, from the result cache (Spec.Memo),
// or coalesced onto a donor job's pass. Deadline-dropped and errored jobs
// return false and leave Res zero-valued, mirroring JobResult's -1 timing
// sentinels.
func (cr *CCResult) Valid() bool {
	return cr.JobResult != nil && cr.Err == nil && cr.End >= 0
}

// ccMeta is the memoization/coalescing view of one CC submission: the
// normalized job shape, its semantic identity keys, and — for admitted
// donors — the jobs riding on its result or its physical pass.
type ccMeta struct {
	job CCJob // normalized copy (Ranks and CB resolved)
	out *CCResult
	// shapeKey identifies the access shape (dataset, var, slab, split,
	// ranks, buffer, block) — also the shared plan-cache key.
	shapeKey string
	// memoKey extends shapeKey with the reduce mode and the operator
	// identity: two jobs with equal (==) memoKeys produce bit-identical
	// results, so one cached cc.Result serves both.
	memoKey memoKey
	// bytes is the logical data volume the job's read streams — what a memo
	// hit or coalesce saves.
	bytes int64

	// Donor-side state, set while the job is admitted (see memo.go).
	consumers []cc.Consumer // fused piggyback specs for followers
	waiters   []*JobResult  // identical jobs completed with this result
	followers []*JobResult  // coalesced jobs computed by the fused pass
}

// memoKey is a CC job's semantic identity, compared with ==: the shape key,
// the reduce mode, and the operator's identity, cc.OpKey.
type memoKey struct {
	shape  string
	reduce cc.ReduceMode
	op     any
}

func newMemoKey(shape string, reduce cc.ReduceMode, op cc.Op) memoKey {
	return memoKey{shape: shape, reduce: reduce, op: cc.OpKey(op)}
}

// shares reports whether k equals itself. A key that does not (see cc.OpKey
// for when an operator's key is unequal to itself) shares no result: it is
// neither cached nor registered as an in-flight donor.
func (k memoKey) shares() bool { return k == k }

// ccShapeKey renders j's access shape as
// "cc:<dataset>:v<var>:<start>:<count>:d<split>:r<ranks>:cb<cb>:b<block>",
// the slab's slices spelled as fmt's %v spells them ("[0 8 8]").
func ccShapeKey(j *CCJob) string {
	var buf [128]byte // on the stack: the returned string is the one allocation
	b := append(buf[:0], "cc:"...)
	b = append(b, j.Dataset...)
	b = append(b, ":v"...)
	b = strconv.AppendInt(b, int64(j.VarID), 10)
	b = append(b, ':')
	b = appendInts(b, j.Slab.Start)
	b = append(b, ':')
	b = appendInts(b, j.Slab.Count)
	b = append(b, ":d"...)
	b = strconv.AppendInt(b, int64(j.SplitDim), 10)
	b = append(b, ":r"...)
	b = strconv.AppendInt(b, int64(j.Ranks), 10)
	b = append(b, ":cb"...)
	b = strconv.AppendInt(b, j.CB, 10)
	b = append(b, ":b"...)
	b = strconv.AppendBool(b, j.Block)
	return string(b)
}

// appendInts appends v as fmt's %v prints an []int64: "[a b c]".
func appendInts(b []byte, v []int64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

// prepareCC normalizes j and builds the scheduler Job plus the memo
// metadata shared by SubmitCC and SubmitCCAt; meta.out is the result the
// caller returns.
func (c *Cluster) prepareCC(j CCJob) (Job, *ccMeta) {
	if j.Op == nil {
		panic(fmt.Sprintf("cluster: CC job %q has no Op", j.Name))
	}
	ds := c.Dataset(j.Dataset) // fail fast on unknown dataset
	v, err := ds.Var(j.VarID)
	if err != nil {
		panic(fmt.Sprintf("cluster: CC job %q: %v", j.Name, err))
	}
	if j.Ranks == 0 {
		j.Ranks = c.spec.Ranks
	}
	if j.CB == 0 {
		j.CB = 4 << 20
	}
	// The plan is a pure function of the per-comm-rank requests, so jobs with
	// identical shapes can share plans even on different world-rank subsets.
	shape := ccShapeKey(&j)
	meta := &ccMeta{
		job:      j,
		out:      &CCResult{},
		shapeKey: shape,
		memoKey:  newMemoKey(shape, j.Reduce, j.Op),
		bytes:    j.Slab.NumElems() * v.Type.Size(),
	}
	job := Job{
		Name:     j.Name,
		Ranks:    j.Ranks,
		Deadline: j.Deadline,
		Priority: j.Priority,
		EstCost:  j.EstCost,
		Class:    j.Class,
		PlanKey:  shape,
		Main: func(ctx *JobContext, r *mpi.Rank) error {
			j := &meta.job
			comm := ctx.Comm()
			slabs := climate.SplitAlongDim(j.Slab, j.SplitDim, comm.Size())
			res, err := cc.ObjectGetVaraSession(ctx, r, cc.IO{
				DS:         ctx.Dataset(j.Dataset),
				VarID:      j.VarID,
				Slab:       slabs[comm.RankOf(r)],
				Block:      j.Block,
				Reduce:     j.Reduce,
				Params:     adio.Params{CB: j.CB, Pipeline: !j.Block},
				SecPerElem: j.SecPerElem,
				Consumers:  meta.consumers,
			}, j.Op)
			if err != nil {
				return err
			}
			if res.Root {
				meta.out.Res = res
			}
			return nil
		},
	}
	return job, meta
}

// SubmitCC queues a declarative collective-computing job. Jobs with the same
// access shape (dataset, slab, split, rank count, buffer size) share one
// collective-I/O plan cache automatically; with Spec.Memo enabled, jobs with
// the same full semantic shape additionally share results, and overlapping
// jobs share one physical pass (see memo.go).
func (c *Cluster) SubmitCC(j CCJob) *CCResult {
	job, meta := c.prepareCC(j)
	jr := c.prepare(&job, 0, meta)
	c.enqueue(jr)
	meta.out.JobResult = jr
	return meta.out
}

// SubmitCCAt queues a declarative collective-computing job arriving at
// virtual time t > 0 (see SubmitAt).
func (c *Cluster) SubmitCCAt(t float64, j CCJob) *CCResult {
	job, meta := c.prepareCC(j)
	jr := c.prepare(&job, t, meta)
	c.enqueueAt(jr)
	meta.out.JobResult = jr
	return meta.out
}
