package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// ErrDeadlineExpired marks a job whose deadline passed while it was still
// queued; the scheduler drops it without starting it.
var ErrDeadlineExpired = errors.New("cluster: deadline expired before admission")

// Job is one unit of work for the rank pool: an SPMD body executed by Ranks
// processes on their own sub-communicator.
type Job struct {
	// Name labels the job in results and errors.
	Name string
	// Ranks is how many ranks the job needs; 0 means every rank.
	Ranks int
	// Deadline, when > 0, is the job's latest acceptable completion, in
	// virtual seconds after submission. An expired queued job is dropped
	// with ErrDeadlineExpired; a late-finishing job is marked DeadlineMiss.
	Deadline float64
	// Priority orders admission under the "priority" scheduling policy:
	// higher-priority jobs are served first (most-urgent deadline, then
	// FCFS, within a priority). Other policies ignore it.
	Priority int
	// EstCost is the job's estimated service time in virtual seconds; 0
	// means unknown. The "easy-backfill" policy uses it to reserve a start
	// time for a blocked head job and to prove a backfill candidate cannot
	// delay that reservation; "fairshare" uses it to charge the owning
	// tenant's share at admission (trued up to actual at completion).
	EstCost float64
	// Class is the job's SLO class label ("batch", "interactive", ...; "" =
	// unclassified). Scheduling ignores it; the telemetry plane dimensions
	// per-class metrics, series wait windows, and run reports by it.
	Class string
	// PlanKey, when non-empty, shares the cluster plan cache registered
	// under that key (see Cluster.PlanCache); empty gives the job a private
	// cache.
	PlanKey string
	// Main is the job body, run by every assigned rank with the job context
	// (communicator, storage clients, plan cache, stats).
	Main func(ctx *JobContext, r *mpi.Rank) error
}

// JobResult is the scheduler's record of one submission. Timing fields are
// virtual seconds; they are valid after Cluster.Run returns.
type JobResult struct {
	Job    *Job
	Submit float64 // submission time
	Start  float64 // admission time (-1 if never started)
	End    float64 // completion time (-1 if never finished)
	Ranks  []int   // world ranks the job ran on
	Err    error   // first rank error, or ErrDeadlineExpired
	// DeadlineMiss reports the job finished past its deadline (or was
	// dropped for expiring in the queue).
	DeadlineMiss bool
	// Stats accumulates the job's collective-computing accounting (the
	// default sink of cc.ObjectGetVaraSession).
	Stats cc.Stats
	// MemoHit reports the job was completed instantly from the cluster's
	// result cache (Spec.Memo) without occupying any ranks.
	MemoHit bool
	// CoalescedWith, when non-nil, is the donor job this one shared with:
	// either an identical in-flight job whose result it adopted, or an
	// overlapping job whose physical pass computed its operator.
	CoalescedWith *JobResult

	session *Session
	slot    int        // 1 + index in the pending queue while queued, else 0
	pid     int        // Perfetto process id (submission index + 1)
	runSpan obs.SpanID // open "run" span while the job executes
	cc      *ccMeta    // memo/coalescing metadata; nil for non-CC jobs
}

// TracePID returns the job's Perfetto process id in trace exports
// (submission index + 1; pid 0 is the cluster scheduler).
func (jr *JobResult) TracePID() int { return jr.pid }

// Seq is the job's global submission sequence (0-based), the FCFS tie-break
// every policy must use.
func (jr *JobResult) Seq() int { return jr.pid - 1 }

// Tenant is the scheduling-policy tenant label: the owning session's name,
// or "" for jobs submitted directly on the cluster.
func (jr *JobResult) Tenant() string {
	if jr.session != nil {
		return jr.session.name
	}
	return ""
}

// AbsDeadline is the job's absolute deadline in virtual seconds, +Inf when
// it has none.
func (jr *JobResult) AbsDeadline() float64 {
	if jr.Job.Deadline <= 0 {
		return math.Inf(1)
	}
	return jr.Submit + jr.Job.Deadline
}

// Timing accessor sentinels: a job that was never admitted (the cluster
// errored out, or Run was never called) has Start == -1 and End == -1, and
// the accessors below return -1 rather than a meaningless difference against
// the sentinel. A deadline-dropped job is different: the scheduler stamps
// Start = End = the drop time, so QueueWait reports the real time spent
// queued before expiry, Duration is 0, and Turnaround is submit-to-drop.

// QueueWait is the time the job spent queued before admission (or before
// being dropped). Returns -1 if the job was never admitted or dropped.
func (jr *JobResult) QueueWait() float64 {
	if jr.Start < 0 {
		return -1
	}
	return jr.Start - jr.Submit
}

// Duration is the job's service time (End - Start); 0 for deadline-dropped
// jobs, -1 if the job never started or never finished.
func (jr *JobResult) Duration() float64 {
	if jr.Start < 0 || jr.End < 0 {
		return -1
	}
	return jr.End - jr.Start
}

// Turnaround is submission-to-completion latency (End - Submit), including
// queue wait; for dropped jobs it is submit-to-drop. Returns -1 if the job
// never completed.
func (jr *JobResult) Turnaround() float64 {
	if jr.End < 0 {
		return -1
	}
	return jr.End - jr.Submit
}

// JobContext is what a running job sees of the cluster: its own
// communicator (in a private tag namespace), per-rank storage clients, the
// job's plan cache, and its stats sink. It implements cc.SessionEnv, so job
// bodies call cc.ObjectGetVaraSession(ctx, r, io, op).
type JobContext struct {
	cluster *Cluster
	job     *Job
	res     *JobResult
	comm    *mpi.Comm
	cache   *adio.PlanCache
	clients []*pfs.Client // per comm rank, built on first use
	errs    []error       // per comm rank
	left    int           // ranks still running
}

// Comm returns the job's communicator.
func (ctx *JobContext) Comm() *mpi.Comm { return ctx.comm }

// Client returns r's storage client, created on first use and reused across
// calls within the job.
func (ctx *JobContext) Client(r *mpi.Rank) *pfs.Client {
	me := ctx.comm.RankOf(r)
	if cl := ctx.clients[me]; cl != nil {
		return cl
	}
	cl := ctx.cluster.Client(r)
	ctx.clients[me] = cl
	return cl
}

// PlanCache returns the job's collective-I/O plan cache (shared with other
// jobs naming the same Job.PlanKey).
func (ctx *JobContext) PlanCache() *adio.PlanCache { return ctx.cache }

// Stats returns the job's accounting sink.
func (ctx *JobContext) Stats() *cc.Stats { return &ctx.res.Stats }

// Dataset resolves a dataset registered on the cluster.
func (ctx *JobContext) Dataset(name string) *ncfile.Dataset {
	return ctx.cluster.Dataset(name)
}

// Submit queues j for execution at virtual time 0. The job definition is
// copied; the returned result is filled in during Run.
func (c *Cluster) Submit(j *Job) *JobResult {
	jr := c.prepare(j, 0, nil)
	c.enqueue(jr)
	return jr
}

// SubmitAt queues j at virtual time t > 0 — an arrival, not a batch. Must
// be called before Run.
func (c *Cluster) SubmitAt(t float64, j *Job) *JobResult {
	jr := c.prepare(j, t, nil)
	c.enqueueAt(jr)
	return jr
}

// enqueue puts jr on the pending queue. It is the one place a job enters
// the queue, so the memo layer's (dataset, var) index sees every CC job
// there, its metadata already attached.
func (c *Cluster) enqueue(jr *JobResult) {
	c.pending.push(jr)
	if c.memo != nil && jr.cc != nil {
		c.memo.track(jr)
	}
}

// enqueueAt enqueues jr when the virtual clock reaches its submit time.
func (c *Cluster) enqueueAt(jr *JobResult) {
	c.futureSubs++
	c.env.At(jr.Submit, func() {
		c.futureSubs--
		c.enqueue(jr)
		c.done.Send(doneMsg{}, 0, jr.Submit) // wake: zero ctx
	})
}

// prepare validates and copies j into a new result record, submitted at
// time submit; meta is the job's CC metadata, nil for a plain job.
func (c *Cluster) prepare(j *Job, submit float64, meta *ccMeta) *JobResult {
	if c.ran {
		panic("cluster: Submit after Run")
	}
	if j.Main == nil {
		panic(fmt.Sprintf("cluster: job %q has no Main", j.Name))
	}
	cp := *j
	if cp.Ranks == 0 {
		cp.Ranks = c.spec.Ranks
	}
	if cp.Ranks < 0 || cp.Ranks > c.spec.Ranks {
		panic(fmt.Sprintf("cluster: job %q needs %d ranks on a %d-rank cluster",
			cp.Name, cp.Ranks, c.spec.Ranks))
	}
	// Total order at the door: the policies' ordered indexes compare these
	// values, and a NaN compares false both ways — the job's place in the
	// order would silently depend on queue position.
	for _, f := range []struct {
		name string
		v    float64
	}{{"EstCost", cp.EstCost}, {"Deadline", cp.Deadline}, {"submit time", submit}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			panic(fmt.Sprintf("cluster: job %q has %s %v (must be finite)", cp.Name, f.name, f.v))
		}
	}
	jr := &JobResult{Job: &cp, Submit: submit, Start: -1, End: -1,
		pid: len(c.results) + 1, cc: meta}
	c.results = append(c.results, jr)
	return jr
}

// doneMsg is the scheduler's typed completion/wake message. A zero ctx is a
// pure wake-up (a future submission arrived); workers are shut down with a
// nil assignment instead of a sentinel type.
type doneMsg struct {
	ctx      *JobContext
	commRank int
	err      error
}

// worker is each rank's lifetime loop: wait for an assignment, run the job
// body, report completion; exit on shutdown.
func (c *Cluster) worker(r *mpi.Rank) {
	mb := c.assign[r.Rank()]
	for {
		m := mb.Recv(r.Proc())
		ctx := m.Payload
		if ctx == nil {
			return // shutdown
		}
		err := ctx.job.Main(ctx, r)
		c.done.Send(doneMsg{ctx: ctx, commRank: ctx.comm.RankOf(r), err: err},
			0, c.env.Now())
	}
}

// scheduler is the admission/completion loop. The mechanism lives here —
// rank pool, completion collection, telemetry round boundaries, shutdown —
// while admission order and placement are delegated to the configured
// scheduling Policy (Spec.Policy; fifo by default) through a Queue view at
// every scheduling event.
func (c *Cluster) scheduler(p *sim.Proc) {
	q := &Queue{c: c, pool: newRankPool(c.spec.Ranks)}
	c.schedQ = q

	for {
		// One admission round: the policy drops expired jobs it considers,
		// serves what it can from the memo layer, and starts every pending
		// job it decides should run now. Decision tracing stamps each round
		// (decisions.go): admissions/drops/memo completions record their
		// outcome inline in the verbs, and closeDecisionRound closes the
		// round with the skips whose cause changed.
		c.decRound++
		c.policy.Admit(q)
		c.closeDecisionRound(q)

		if len(q.running) == 0 && c.pending.Len() == 0 && c.futureSubs == 0 {
			break
		}

		// Round boundary: the admission round is over and the scheduler is
		// about to block — a consistent instant to publish telemetry from.
		c.publishTelemetry(c.env.Now(), c.pending.Len(), c.spec.Ranks-q.pool.free)

		m := c.done.Recv(p)
		d := m.Payload
		if d.ctx == nil {
			continue // wake-up from SubmitAt
		}
		ctx := d.ctx
		ctx.errs[d.commRank] = d.err
		ctx.left--
		if ctx.left > 0 {
			continue
		}
		now := c.env.Now()
		jr := ctx.res
		jr.End = now
		jr.Err = firstErr(ctx.errs)
		if ctx.job.Deadline > 0 && now > jr.Submit+ctx.job.Deadline {
			jr.DeadlineMiss = true
		}
		q.complete(jr)
		if ot := c.obs; ot != nil {
			ot.End(jr.runSpan, now)
			if jr.Err != nil {
				ot.AddAttr(jr.runSpan, obs.S("err", jr.Err.Error()))
			}
			if jr.DeadlineMiss {
				ot.AddAttr(jr.runSpan, obs.I("deadline_miss", 1))
			}
			for _, wr := range jr.Ranks {
				ot.UnbindRank(wr)
			}
			ot.Counter("cluster_ranks_busy", now, float64(c.spec.Ranks-q.pool.free))
			m := ot.Metrics()
			m.Counter("cluster_jobs_completed").Inc()
			m.Histogram("cluster_service_seconds").Observe(jr.End - jr.Start)
			m.Histogram("cluster_turnaround_seconds").Observe(jr.End - jr.Submit)
			if jr.DeadlineMiss {
				m.Counter("cluster_deadline_misses").Inc()
			}
		}
		// Cache the result and fan it out to attached waiters/followers.
		c.memoComplete(jr, now)
	}

	for _, mb := range c.assign {
		mb.Send(nil, 0, c.env.Now())
	}
}

// firstErr returns the lowest-comm-rank error, wrapped with its rank.
func firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return nil
}

// CriticalPath reconstructs the chain of jobs that determined the makespan
// of a completed run: starting from the latest-finishing job that actually
// ran, it walks backwards through predecessors whose completion coincides
// with the current job's admission (in the discrete-event scheduler a job
// admitted the instant another completed was waiting on its ranks or on the
// concurrency cap), stopping at a job admitted at its own submission time.
// The returned slice is in execution order. Results from dropped or
// never-started jobs are skipped.
func CriticalPath(results []*JobResult) []*JobResult {
	const eps = 1e-9
	ran := func(jr *JobResult) bool {
		return jr.Start >= 0 && jr.End >= 0 && jr.End > jr.Start
	}
	var cur *JobResult
	for _, jr := range results {
		if ran(jr) && (cur == nil || jr.End > cur.End) {
			cur = jr
		}
	}
	if cur == nil {
		return nil
	}
	chain := []*JobResult{cur}
	for cur.Start > cur.Submit+eps {
		var pred *JobResult
		for _, jr := range results {
			if jr == cur || !ran(jr) {
				continue
			}
			if jr.End <= cur.Start+eps && jr.End >= cur.Start-eps &&
				(pred == nil || jr.Start < pred.Start) {
				pred = jr
			}
		}
		if pred == nil {
			break
		}
		chain = append(chain, pred)
		cur = pred
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}
