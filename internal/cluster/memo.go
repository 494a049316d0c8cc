package cluster

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/obs/decision"
)

// This file implements cross-job result memoization and shared-window read
// coalescing (Spec.Memo). Three sharing regimes, all bit-identical to cold
// runs:
//
//   - Memo hit: a queued job's full semantic shape (dataset, var, slab,
//     split, rank count, buffer, block flag, reduce mode, operator
//     identity) matches a completed job's — the cached cc.Result is returned
//     instantly, occupying no ranks.
//   - Waiter: the matching job is still running — the queued job attaches to
//     it and completes the moment the donor does, with the donor's result.
//   - Coalesced follower: a queued job's read window overlaps an admitted
//     donor's pass — its operator is fused onto the donor's physical pass
//     (cc.Consumer) and evaluated from the same subsets, saving the re-read.
//
// Follower eligibility is conservative so results stay bit-identical (see
// internal/cc/coalesce.go): either the follower's full shape and reduce mode
// equal the donor's (any operator), or its slab is contained in the donor's
// and its operator is order-invariant.

// MemoStats counts the result cache's activity over a run. Available without
// obs via Cluster.MemoStats; mirrored into the metrics registry
// (memo_events{kind} gauges) when Spec.Obs is set.
type MemoStats struct {
	Hits       int   // completed-result cache hits (no ranks occupied)
	Waiters    int   // jobs completed by attaching to an in-flight twin
	Coalesced  int   // jobs piggybacked onto a donor's physical pass
	Misses     int   // CC jobs that ran their own physical pass
	BytesSaved int64 // logical bytes not re-read thanks to sharing
	Evictions  int   // cached results dropped by the count cap (Spec.MemoCap)
}

// defaultMemoCap bounds the result cache when Spec.MemoCap is 0: large
// enough that no existing experiment ever evicts, small enough that a
// million-job stream cannot grow the cache without bound.
const defaultMemoCap = 1 << 16

// memoTable is the cluster-level result cache plus the in-flight donor index.
// The cache is count-bounded (cap; 0 = unlimited): when an insertion pushes
// it past the cap, the oldest-inserted entries are evicted first. Eviction is
// purely an occupancy guard — an evicted shape simply recomputes and
// re-caches, so capped runs stay bit-identical to unbounded ones — and FIFO
// order keeps it deterministic. Cost/size-aware eviction stays a ROADMAP
// memo-v2 item.
type memoTable struct {
	entries map[memoKey]cc.Result  // memoKey -> result
	order   []memoKey              // memo keys in insertion order
	cap     int                    // max entries; 0 = unlimited
	running map[memoKey]*JobResult // memoKey -> admitted donor
	// byVar lists the CC jobs that entered the pending queue, per (dataset,
	// var), in arrival order: the only jobs an admitted donor can attach.
	// A job leaves the queue without being told to its list; the donor walk
	// drops it lazily (DESIGN.md §11).
	byVar map[dsVar][]*JobResult
	// attachWork counts memoAttach calls made by donor walks: the admission
	// work gate's unit (no metric, no clock), like Cluster.admitWork.
	attachWork int
	// sweep, when set, replaces the index walk at donor admission. Only tests
	// set it, to the full-queue sweep the index is held to.
	sweep func(c *Cluster, donor *JobResult, now float64)
	stats MemoStats
}

// dsVar names one variable of one registered dataset.
type dsVar struct {
	dataset string
	varID   int
}

func newMemoTable(cap int) *memoTable {
	return &memoTable{
		entries: make(map[memoKey]cc.Result),
		cap:     cap,
		running: make(map[memoKey]*JobResult),
		byVar:   make(map[dsVar][]*JobResult),
	}
}

// track files CC job jr, just queued, under its (dataset, var).
func (t *memoTable) track(jr *JobResult) {
	k := dsVar{jr.cc.job.Dataset, jr.cc.job.VarID}
	t.byVar[k] = append(t.byVar[k], jr)
}

// insert caches res under key and enforces the count cap. A re-inserted key
// keeps its original position (it can only re-enter after eviction removed
// it, so order never holds a key twice). A key that does not share is not
// cached: no lookup could find it, and no eviction could delete it.
func (t *memoTable) insert(key memoKey, res cc.Result) {
	if !key.shares() {
		return
	}
	if _, live := t.entries[key]; !live {
		t.order = append(t.order, key)
	}
	t.entries[key] = res
	for t.cap > 0 && len(t.entries) > t.cap {
		delete(t.entries, t.order[0])
		t.order = t.order[1:]
		t.stats.Evictions++
	}
}

// memoTryComplete serves the queue head from the memo layer when possible: a
// cached result completes it instantly; an identical in-flight job adopts it
// as a waiter. Returns true when jr was consumed (the caller pops it from the
// queue without admitting it).
func (c *Cluster) memoTryComplete(jr *JobResult, now float64) bool {
	if c.memo == nil || jr.cc == nil {
		return false
	}
	meta := jr.cc
	if res, ok := c.memo.entries[meta.memoKey]; ok {
		jr.Start, jr.End = now, now
		jr.MemoHit = true
		meta.out.Res = res
		c.memo.stats.Hits++
		c.memo.stats.BytesSaved += meta.bytes
		if ot := c.obs; ot != nil {
			ot.SetThreadName(0, jr.pid-1, "job "+jr.Job.Name)
			ot.Span(0, jr.pid-1, "queued", "sched", jr.Submit, now,
				queuedSpanAttrs(jr)...)
			ot.Instant(0, jr.pid-1, "memo-hit", "sched", now,
				obs.S("job", jr.Job.Name), obs.I("bytes_saved", meta.bytes))
			m := ot.Metrics()
			m.Counter("cluster_jobs_completed").Inc()
			m.Histogram("cluster_turnaround_seconds").Observe(now - jr.Submit)
			c.tenantMx(jr).memoHits.Inc()
		}
		if c.decisionsOn() {
			c.obs.Decision(c.newDecision(jr, decision.MemoHit))
		}
		return true
	}
	if donor, ok := c.memo.running[meta.memoKey]; ok {
		jr.Start = now
		jr.CoalescedWith = donor
		donor.cc.waiters = append(donor.cc.waiters, jr)
		if ot := c.obs; ot != nil {
			ot.SetThreadName(0, jr.pid-1, "job "+jr.Job.Name)
			ot.Instant(0, jr.pid-1, "memo-wait", "sched", now,
				obs.S("job", jr.Job.Name), obs.S("donor", donor.Job.Name))
		}
		if c.decisionsOn() {
			rec := c.newDecision(jr, decision.MemoWait)
			rec.Reason = decision.WaitingOnTwin
			blameRecord(&rec, donor)
			c.obs.Decision(rec)
		}
		return true
	}
	return false
}

// memoAdmit registers jr as an in-flight donor and walks the pending jobs
// of its (dataset, var), in arrival order, for jobs that can share its
// result (waiters) or its physical pass (coalesced followers). A job of
// another (dataset, var) could do neither, so the walk attaches what a sweep
// of the whole queue would, in the same order. Attached jobs are removed
// from the queue; followers' operators are fused into the donor's pass via
// meta.consumers before the donor's ranks start. Called at admission time,
// after jr was popped from the queue.
func (c *Cluster) memoAdmit(jr *JobResult, now float64) {
	if c.memo == nil || jr.cc == nil {
		return
	}
	meta := jr.cc
	if meta.memoKey.shares() {
		c.memo.running[meta.memoKey] = jr
	}
	c.memo.stats.Misses++
	if c.memo.sweep != nil {
		c.memo.sweep(c, jr, now)
		return
	}

	// Walk the list, dropping every entry that left the queue — before this
	// walk or by attaching in it — and compacting the rest in place.
	k := dsVar{meta.job.Dataset, meta.job.VarID}
	list := c.memo.byVar[k]
	keep := list[:0]
	for _, p := range list {
		if !c.pending.has(p) {
			continue
		}
		c.memo.attachWork++
		if c.memoAttach(jr, p, now) {
			c.pending.remove(p)
			continue
		}
		keep = append(keep, p)
	}
	clear(list[len(keep):])
	c.memo.byVar[k] = keep
}

// memoAttach tries to attach pending job p to admitted donor jr, returning
// true when p was absorbed (waiter or coalesced follower).
func (c *Cluster) memoAttach(jr, p *JobResult, now float64) bool {
	if p.cc == nil {
		return false
	}
	d, f := jr.cc, p.cc
	if f.job.Dataset != d.job.Dataset || f.job.VarID != d.job.VarID {
		return false
	}
	// Leave expired jobs for the head-of-queue deadline drop.
	if p.Job.Deadline > 0 && now > p.Submit+p.Job.Deadline {
		return false
	}
	if f.memoKey == d.memoKey {
		p.Start = now
		p.CoalescedWith = jr
		d.waiters = append(d.waiters, p)
		if ot := c.obs; ot != nil {
			ot.SetThreadName(0, p.pid-1, "job "+p.Job.Name)
			ot.Instant(0, p.pid-1, "memo-wait", "sched", now,
				obs.S("job", p.Job.Name), obs.S("donor", jr.Job.Name))
		}
		if c.decisionsOn() {
			rec := c.newDecision(p, decision.MemoWait)
			rec.Reason = decision.WaitingOnTwin
			blameRecord(&rec, jr)
			c.obs.Decision(rec)
		}
		return true
	}
	// Coalescing requires both jobs on the collective-computing path: the
	// fused pass reconstructs subsets inside the donor's aggregator
	// iterations.
	if d.job.Block || f.job.Block {
		return false
	}
	op := f.job.Op
	switch {
	case f.shapeKey == d.shapeKey && f.job.Reduce == d.job.Reduce:
		// Exact shape, different operator: the fused component replays the
		// follower's own absorb/merge order — any operator is safe.
	case cc.OrderInvariant(op) && slabContained(f.job.Slab, d.job.Slab):
		// Contained window, order-invariant operator: fold order cannot
		// change the bits. Restrict to the follower's window unless the
		// slabs coincide.
		if !slabEqual(f.job.Slab, d.job.Slab) {
			op = cc.WindowOp{Op: op, Window: f.job.Slab}
		}
	default:
		return false
	}
	p.Start = now
	p.CoalescedWith = jr
	d.followers = append(d.followers, p)
	out := f.out
	d.consumers = append(d.consumers, cc.Consumer{
		Op:         op,
		SecPerElem: f.job.SecPerElem,
		OnResult:   func(res cc.Result) { out.Res = res },
	})
	if ot := c.obs; ot != nil {
		ot.SetThreadName(0, p.pid-1, "job "+p.Job.Name)
		ot.Instant(0, p.pid-1, "coalesce-attach", "sched", now,
			obs.S("job", p.Job.Name), obs.S("donor", jr.Job.Name),
			obs.I("bytes_saved", f.bytes))
	}
	if c.decisionsOn() {
		rec := c.newDecision(p, decision.Coalesce)
		rec.Reason = decision.WaitingOnTwin
		blameRecord(&rec, jr)
		c.obs.Decision(rec)
	}
	return true
}

// memoComplete finishes the memo layer's bookkeeping when donor jr
// completes: cache its result (and each follower's), complete every attached
// waiter and follower, and unregister the in-flight entry. Donor errors
// propagate to every attached job.
func (c *Cluster) memoComplete(jr *JobResult, now float64) {
	if c.memo == nil || jr.cc == nil {
		return
	}
	meta := jr.cc
	if c.memo.running[meta.memoKey] == jr {
		delete(c.memo.running, meta.memoKey)
	}
	if jr.Err == nil {
		c.memo.insert(meta.memoKey, meta.out.Res)
	}
	for _, w := range meta.waiters {
		w.cc.out.Res = meta.out.Res
		c.memo.stats.Waiters++
		c.memo.stats.BytesSaved += w.cc.bytes
		c.finishShared(jr, w, "waiter", now)
	}
	for _, f := range meta.followers {
		c.memo.stats.Coalesced++
		c.memo.stats.BytesSaved += f.cc.bytes
		if jr.Err == nil {
			c.memo.insert(f.cc.memoKey, f.cc.out.Res)
		}
		c.finishShared(jr, f, "coalesced", now)
	}
}

// finishShared stamps a waiter or coalesced follower complete at the donor's
// completion time, propagating the donor's error if it failed.
func (c *Cluster) finishShared(donor, p *JobResult, kind string, now float64) {
	p.End = now
	if donor.Err != nil {
		p.Err = fmt.Errorf("shared with job %q: %w", donor.Job.Name, donor.Err)
		p.cc.out.Res = cc.Result{}
	}
	if p.Job.Deadline > 0 && now > p.Submit+p.Job.Deadline {
		p.DeadlineMiss = true
	}
	if ot := c.obs; ot != nil {
		ot.Span(0, p.pid-1, "queued", "sched", p.Submit, p.Start,
			queuedSpanAttrs(p)...)
		ot.Span(0, p.pid-1, kind, "sched", p.Start, now,
			obs.S("job", p.Job.Name), obs.S("donor", donor.Job.Name))
		m := ot.Metrics()
		m.Counter("cluster_jobs_completed").Inc()
		m.Histogram("cluster_turnaround_seconds").Observe(now - p.Submit)
		if p.DeadlineMiss {
			m.Counter("cluster_deadline_misses").Inc()
		}
	}
}

// slabEqual reports whether a and b cover the same region.
func slabEqual(a, b layout.Slab) bool {
	if len(a.Start) != len(b.Start) {
		return false
	}
	for d := range a.Start {
		if a.Start[d] != b.Start[d] || a.Count[d] != b.Count[d] {
			return false
		}
	}
	return true
}

// slabContained reports whether inner lies entirely within outer.
func slabContained(inner, outer layout.Slab) bool {
	if len(inner.Start) != len(outer.Start) {
		return false
	}
	for d := range inner.Start {
		if inner.Start[d] < outer.Start[d] ||
			inner.Start[d]+inner.Count[d] > outer.Start[d]+outer.Count[d] {
			return false
		}
	}
	return true
}
