package cluster

import (
	"math"
	"sort"

	"repro/internal/obs/decision"
)

// This file is the scheduler's decision-trace emission: when decision
// tracing is enabled on the installed obs tracer (obs.Tracer.EnableDecisions
// — opt-in, driven by the CLIs' -explain flag and by -serve), every
// admission-loop round records one typed decision.Record per pending job
// (admitted / dropped / memo-served / skipped-with-reason), with the
// blocking job and a free-rank snapshot attached. Emission happens at the
// same program points as the existing event-log instants (deadline-drop,
// backfill, memo-hit, memo-wait, coalesce-attach), from the same values, so
// the two streams can never disagree. Recording is observation only: it
// never touches the virtual clock or the schedule, so enabling it leaves
// results, makespans, and the repro.events.v1 event stream bit-identical.

// decBlame is a policy-supplied typed skip reason for one pending job,
// valid for the current round only (see Queue.Blame).
type decBlame struct {
	reason  decision.Reason
	blocked *JobResult // may be nil
	shadow  float64
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

// newDecision fills the common fields of a decision record for jr at the
// current virtual time: round, policy, job identity, width, wait so far,
// and a snapshot of the free-rank set as it stands now.
func (c *Cluster) newDecision(jr *JobResult, outcome decision.Outcome) decision.Record {
	free, ranks := c.schedQ.freeSnapshot()
	return c.decisionAt(jr, outcome, free, ranks)
}

// freeSnapshot renders the free-rank set for decision records. Formatting
// it is the expensive part of a record, so a caller emitting many records
// against one pool state (a round's skip records) takes it once.
func (q *Queue) freeSnapshot() (free int, ranks string) {
	if q == nil {
		return 0, ""
	}
	return q.pool.free, decision.FormatRanks(q.pool.ranks(nil))
}

// decisionAt is newDecision against a free-rank snapshot the caller took.
func (c *Cluster) decisionAt(jr *JobResult, outcome decision.Outcome, free int, ranks string) decision.Record {
	now := c.env.Now()
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

// blameRecord attaches the blocking job to a record (nil leaves it absent).
func blameRecord(rec *decision.Record, by *JobResult) {
	if by != nil {
		rec.BlockedBy, rec.BlockedBySeq = by.Job.Name, by.pid-1
	}
}

// Blame records the policy's typed reason for leaving pending job h queued
// this round, overriding the mechanical inference in the round's skip
// records: reason, the blocking job's submission sequence (-1 for none),
// and — for shadow-reservation blames — the reserved start time. Cleared
// when the round's skip records are emitted. A no-op unless decision
// tracing is enabled, so policies may call it unconditionally.
func (q *Queue) Blame(h *JobResult, reason decision.Reason, blockedSeq int, shadow float64) {
	c := q.c
	if !c.decisionsOn() {
		return
	}
	if c.decBlame == nil {
		c.decBlame = make(map[int]decBlame)
	}
	var by *JobResult
	if blockedSeq >= 0 && blockedSeq < len(c.results) {
		by = c.results[blockedSeq]
	}
	c.decBlame[h.Seq()] = decBlame{reason: reason, blocked: by, shadow: shadow}
}

// blameHeadOfLine tags every pending job that would fit right now as
// head-of-line blocked behind the policy's chosen-but-unfitting best
// choice. admitBest calls it before blocking the queue, because the
// mechanical inference in emitSkipDecisions assumes queue-order
// consideration; when best is the queue head (always, under fifo) that
// inference already names it and nothing needs tagging. Like the skip
// records it feeds, it is O(pending) per blocked round and runs only under
// decision tracing.
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

// emitSkipDecisions closes one admission round: every job still pending
// gets a skip record carrying the policy's Blame when one was recorded, or
// a mechanically inferred reason otherwise — concurrency cap first (it
// blocks regardless of width), then insufficient ranks, then head-of-line
// (behind the first earlier pending job that does not itself fit, falling
// back to the queue head). Runs after Policy.Admit at every round; the blame
// map is always cleared so stale blames cannot leak across rounds.
//
// One record per pending job per round is the documented O(pending) price
// of tracing; what must not scale with it is the work per record, so
// everything that cannot change inside the loop — the free-rank rendering,
// the cap blocker, the running set's completion order, the first unfitting
// job of the walk so far — is computed once per round.
func (c *Cluster) emitSkipDecisions(q *Queue) {
	if !c.decisionsOn() {
		clear(c.decBlame)
		return
	}
	free, ranks := q.freeSnapshot()
	capFree := q.CapFree()
	var capBlocker, unfit *JobResult
	if !capFree {
		capBlocker = earliestEndingRunning(q)
	}
	var byEnd []*JobResult
	head := c.pending.first()
	for jr := head; jr != nil; jr = c.pending.next(jr) {
		rec := c.decisionAt(jr, decision.Skip, free, ranks)
		if bl, ok := c.decBlame[jr.Seq()]; ok {
			rec.Reason = bl.reason
			rec.Shadow = bl.shadow
			blameRecord(&rec, bl.blocked)
		} else if !capFree {
			rec.Reason = decision.ConcurrencyCap
			blameRecord(&rec, capBlocker)
		} else if jr.Job.Ranks > free {
			rec.Reason = decision.InsufficientRanks
			if byEnd == nil {
				byEnd = runningByEstEnd(q)
			}
			blameRecord(&rec, rankBlocker(q, byEnd, jr.Job.Ranks))
		} else {
			rec.Reason = decision.HeadOfLine
			if unfit != nil {
				blameRecord(&rec, unfit)
			} else if jr != head {
				blameRecord(&rec, head)
			}
		}
		if unfit == nil && jr.Job.Ranks > free {
			unfit = jr
		}
		c.obs.Decision(rec)
	}
	clear(c.decBlame)
}
