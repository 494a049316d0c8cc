package cluster

import (
	"math"
	"sort"

	"repro/internal/obs/decision"
)

// This file is the scheduler's decision-trace emission: when decision
// tracing is enabled on the installed obs tracer (obs.Tracer.EnableDecisions
// — opt-in, driven by the CLIs' -explain flag), every
// admission-loop round records a typed decision.Record for each job it
// admits, drops or serves from the memo layer, with the blocking job and a
// free-rank snapshot attached, and closes with the round's skips: one Round
// record, then a Skip record for each pending job whose cause is not the one
// last written for it (see closeDecisionRound). Emission happens at the
// same program points as the existing event-log instants (deadline-drop,
// backfill, memo-hit, memo-wait, coalesce-attach), from the same values, so
// the two streams can never disagree. Recording is observation only: it
// never touches the virtual clock or the schedule, so enabling it leaves
// results, makespans, and the repro.events.v1 event stream bit-identical.

// decCause is why a pending job stays queued at one round: what a skip
// record says beyond naming the job. Two rounds give a job the same cause
// exactly when their skip lines would differ only in round, time and wait.
type decCause struct {
	reason  decision.Reason
	blocked *JobResult // may be nil
	shadow  float64    // the reservation's start; 0 unless reason is ShadowReservation
}

// decAdmitTag carries a policy-supplied admission reason (backfill + shadow
// time) into Queue.Admit for the decision record; see Queue.AdmitBackfilled.
type decAdmitTag struct {
	reason decision.Reason
	shadow float64
	set    bool
}

// decisionsOn reports whether scheduler decision tracing is enabled.
func (c *Cluster) decisionsOn() bool { return c.obs.DecisionsEnabled() }

// newDecision fills the common fields of a job's terminal decision record
// at the current virtual time: round, policy, job identity, width, wait so
// far, and a snapshot of the free-rank set as it stands now.
func (c *Cluster) newDecision(jr *JobResult, outcome decision.Outcome) decision.Record {
	now := c.env.Now()
	free, ranks := c.schedQ.freeSnapshot()
	return decision.Record{
		Round: c.decRound, T: now, Policy: c.policy.Name(),
		Job: jr.Job.Name, Seq: jr.Seq(),
		Outcome:      outcome,
		Width:        jr.Job.Ranks,
		Wait:         now - jr.Submit,
		BlockedBySeq: -1,
		Free:         free,
		FreeRanks:    ranks,
	}
}

// freeSnapshot renders the free-rank set for decision records.
func (q *Queue) freeSnapshot() (free int, ranks string) {
	if q == nil {
		return 0, ""
	}
	return q.pool.free, decision.FormatRanks(q.pool.ranks(nil))
}

// blameRecord attaches the blocking job to a record (nil leaves it absent).
func blameRecord(rec *decision.Record, by *JobResult) {
	if by != nil {
		rec.BlockedBy, rec.BlockedBySeq = by.Job.Name, by.pid-1
	}
}

// Blame records the policy's typed reason for leaving pending job h queued
// this round, overriding the mechanical inference when the round is closed:
// reason, the blocking job's submission sequence (-1 for none), and — for
// shadow-reservation blames — the reserved start time. Cleared when the
// round closes. A no-op unless decision tracing is enabled, so policies may
// call it unconditionally.
func (q *Queue) Blame(h *JobResult, reason decision.Reason, blockedSeq int, shadow float64) {
	c := q.c
	if !c.decisionsOn() {
		return
	}
	if c.decBlame == nil {
		c.decBlame = make(map[int]decCause)
	}
	var by *JobResult
	if blockedSeq >= 0 && blockedSeq < len(c.results) {
		by = c.results[blockedSeq]
	}
	if reason != decision.ShadowReservation {
		shadow = 0
	}
	c.decBlame[h.Seq()] = decCause{reason: reason, blocked: by, shadow: shadow}
}

// blameHeadOfLine tags every pending job that would fit right now as
// head-of-line blocked behind the policy's chosen-but-unfitting best
// choice. admitBest calls it before blocking the queue, because the
// mechanical inference in closeDecisionRound assumes queue-order
// consideration; when best is the queue head (always, under fifo) that
// inference already names it and nothing needs tagging. Like the cause walk
// it feeds, it is O(pending) per blocked round and runs only under decision
// tracing.
func blameHeadOfLine(q *Queue, best *JobResult) {
	if !q.c.decisionsOn() || best == q.Head() {
		return
	}
	for h := q.Head(); h != nil; h = q.Next(h) {
		if h != best && q.Fits(h) {
			q.Blame(h, decision.HeadOfLine, best.Seq(), 0)
		}
	}
}

// estEndOf is the running job's estimated completion (+Inf without an
// estimate) — the decision layer's tie-break clock for picking blockers.
func estEndOf(jr *JobResult) float64 {
	if jr.Job.EstCost > 0 {
		return jr.Start + jr.Job.EstCost
	}
	return math.Inf(1)
}

// earliestEndingRunning picks the running job estimated to finish first
// (admission order breaks ties) — the concurrency-cap blocker.
func earliestEndingRunning(q *Queue) *JobResult {
	var best *JobResult
	for _, r := range q.running {
		if best == nil || estEndOf(r) < estEndOf(best) {
			best = r
		}
	}
	return best
}

// runningByEstEnd returns the running set in estimated-completion order
// (ties by admission order, no-estimate jobs last): rankBlocker's walk order.
func runningByEstEnd(q *Queue) []*JobResult {
	order := append(make([]*JobResult, 0, len(q.running)), q.running...)
	sort.SliceStable(order, func(a, b int) bool {
		return estEndOf(order[a]) < estEndOf(order[b])
	})
	return order
}

// rankBlocker picks the running job whose completion first accumulates
// enough free ranks for width, walking byEnd (runningByEstEnd). With every
// estimate unknown this degrades to admission order — still a
// deterministic, honest "waiting on this job's ranks" answer.
func rankBlocker(q *Queue, byEnd []*JobResult, width int) *JobResult {
	avail := q.pool.free
	for _, r := range byEnd {
		avail += len(r.Ranks)
		if avail >= width {
			return r
		}
	}
	if n := len(q.running); n > 0 {
		return q.running[n-1]
	}
	return nil
}

// closeDecisionRound closes one admission round for the decision trace.
// Every job still pending has a cause this round — the policy's Blame when
// one was recorded, or a mechanically inferred one otherwise: concurrency cap
// first (it blocks regardless of width), then insufficient ranks, then
// head-of-line (behind the first earlier pending job that does not itself
// fit, falling back to the queue head). Runs after Policy.Admit at every
// round; the blame map is always cleared so stale blames cannot leak across
// rounds.
//
// What is written is bounded by what changed, not by what waits: a round
// that leaves nothing pending writes nothing; otherwise one Round record
// (time, free-rank snapshot, pending count), then a Skip record for each
// job whose cause differs from the one last written for it (decHeld — a
// job's first skipped round always differs). A skip holds until the job's
// next record, so a job blocked behind the same running job for a thousand
// rounds is one line, and a reader recovers its wait at any of them as the
// round's time minus the skip's submit. The cause walk itself stays
// O(pending) per round — it is how a change is noticed — so everything that
// cannot change inside it (the cap blocker, the running set's completion
// order, the first unfitting job so far) is computed once per round, and a
// Record is built only for a cause that changed.
func (c *Cluster) closeDecisionRound(q *Queue) {
	head := c.pending.first()
	if !c.decisionsOn() || head == nil {
		clear(c.decBlame)
		return
	}
	now, policy := c.env.Now(), c.policy.Name()
	free, ranks := q.freeSnapshot()
	c.obs.Decision(decision.Record{
		Round: c.decRound, T: now, Policy: policy, Outcome: decision.Round,
		BlockedBySeq: -1, Free: free, FreeRanks: ranks, Pending: c.pending.Len(),
	})
	if n := len(c.results) - len(c.decHeld); n > 0 {
		c.decHeld = append(c.decHeld, make([]decCause, n)...)
	}
	capFree := q.CapFree()
	var capBlocker, unfit *JobResult
	if !capFree {
		capBlocker = earliestEndingRunning(q)
	}
	var byEnd []*JobResult
	for jr := head; jr != nil; jr = c.pending.next(jr) {
		var cause decCause
		if bl, ok := c.decBlame[jr.Seq()]; ok {
			cause = bl
		} else if !capFree {
			cause = decCause{reason: decision.ConcurrencyCap, blocked: capBlocker}
		} else if jr.Job.Ranks > free {
			if byEnd == nil {
				byEnd = runningByEstEnd(q)
			}
			cause = decCause{reason: decision.InsufficientRanks,
				blocked: rankBlocker(q, byEnd, jr.Job.Ranks)}
		} else {
			cause.reason = decision.HeadOfLine
			if unfit != nil {
				cause.blocked = unfit
			} else if jr != head {
				cause.blocked = head
			}
		}
		if unfit == nil && jr.Job.Ranks > free {
			unfit = jr
		}
		if held := &c.decHeld[jr.Seq()]; *held != cause || held.reason == "" {
			*held = cause
			rec := decision.Record{
				Round: c.decRound, T: now, Policy: policy,
				Job: jr.Job.Name, Seq: jr.Seq(),
				Outcome: decision.Skip, Reason: cause.reason,
				Width:        jr.Job.Ranks,
				Wait:         now - jr.Submit,
				Submit:       jr.Submit,
				BlockedBySeq: -1,
				Shadow:       cause.shadow,
			}
			blameRecord(&rec, cause.blocked)
			c.obs.Decision(rec)
		}
	}
	clear(c.decBlame)
}
