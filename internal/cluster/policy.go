package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/adio"
	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/pfs"
)

// This file is the pluggable scheduling-policy layer: admission ordering and
// rank placement, extracted from the scheduler loop behind the Policy
// interface. The scheduler owns the mechanism — the rank pool, the pending
// queue, deadline drops, the memo layer, telemetry — and exposes it to the
// policy through a Queue view; the policy owns only the *choices*: which
// pending job to consider next, whether it may start now, and on which
// ranks.
//
// Pending jobs are addressed by handle — the job's *JobResult — never by
// queue position, and every verb (Expired, Fits, Drop, TryMemo, Admit, Blame)
// takes one. A policy may hold handles across rounds in whatever ordered
// index its discipline needs (DESIGN.md §11 has the full contract):
//
//   - Arrivals are pulled: Queue.Arrivals reports each new pending job once,
//     in arrival order, so an indexing policy calls it at the top of a round.
//   - Removals are discovered: a verb removes the handle it is given, and
//     Admit's memo walk may remove any number of others behind the policy's
//     back. Check Queue.Pending before acting on a held handle and discard
//     it when false (lazy deletion); a handle never re-enters the queue.
//   - Keys are static and totally ordered: a job's width, priority, absolute
//     deadline, estimate, tenant and Seq are fixed at submission and finite
//     (NaN/Inf are refused at Submit). Only Queue.Usage moves,
//     and UsageObserver says when.
//
// Contract (enforced by the property harness in harness_test.go and, for the
// indexed policies, by the linear-scan oracles in oracle_test.go):
//
//   - Determinism: decisions are a pure function of the Queue state, ties
//     broken by submission sequence (JobResult.Seq), never by map iteration
//     or randomness: the same Spec and job list produce bit-identical
//     schedules and event logs on every run.
//   - No double booking: Admit only places jobs on free ranks (the Queue
//     panics otherwise) and never admits past the concurrency cap.
//   - Work conservation: when the machine is idle and jobs are pending,
//     Admit must start one (every job fits on an empty machine, so a policy
//     may only return from Admit when its next choice does not fit).
//   - No starvation on a finite queue: every job is eventually considered,
//     so every non-deadline-dropped job eventually runs.
//
// Built-in policies, their index, and the cost of consuming one job from N
// pending over T tenants (each type's comment has the discipline):
//
//   - "fifo" (default): the queue head; O(1).
//   - "priority": one heap under priBefore; O(log N).
//   - "fairshare": a min-Seq heap per tenant under a tenant heap keyed
//     (usage, head Seq); O(log N + log T).
//   - "easy-backfill": none — O(1) while the head fits, an O(N) walk per
//     round in which it is blocked (the walk's side effects are the log).
//
// With decision tracing on (-explain) every policy also pays O(N) per round
// for the per-pending-job skip records: the documented price of tracing.

// Policy decides admission order and rank placement for the scheduler.
// Admit runs one admission round: inspect the queue, drop expired jobs it
// considers, and start every job that should run now; it must return once
// its next choice cannot be admitted. It is called at every scheduling
// event (job arrival or completion), on the virtual clock.
//
// Implementations may keep state across rounds (reservations, heaps) but
// must stay deterministic.
type Policy interface {
	// Name reports the registry name the policy was constructed under.
	Name() string
	// Admit runs one admission round over the scheduler's queue view.
	Admit(q *Queue)
}

// UsageObserver is implemented by a policy that keeps tenants ordered by
// Queue.Usage: the Queue calls UsageChanged wherever a tenant's charge moves
// (an admission's estimate, a completion's true-up), so the policy re-fixes
// that one tenant instead of re-deriving every key each round.
type UsageObserver interface {
	UsageChanged(q *Queue, tenant string)
}

// Queue is the scheduler's admission state as seen by a Policy: the pending
// queue, the free-rank set, and the running set, plus the mutating verbs
// (Drop, TryMemo, Admit) that keep the scheduler's bookkeeping and
// telemetry identical no matter which policy drives them.
//
// A pending job is its *JobResult handle: Job.Ranks, Job.Priority and
// Job.EstCost are read off it directly; Seq, Tenant and AbsDeadline are its
// accessors.
type Queue struct {
	c       *Cluster
	pool    rankPool
	running []*JobResult // admitted and not yet completed, admission order
}

// rankPool tracks the free world ranks as a bitset: O(1) take/put and
// lowest-free-first placement (ascending rank) via trailing-zero scans over
// 64-rank words.
type rankPool struct {
	words []uint64
	free  int // free count
}

func newRankPool(n int) rankPool {
	p := rankPool{words: make([]uint64, (n+63)/64), free: n}
	for i := 0; i < n; i++ {
		p.words[i>>6] |= 1 << uint(i&63)
	}
	return p
}

func (p *rankPool) put(wr int) {
	p.words[wr>>6] |= 1 << uint(wr&63)
	p.free++
}

// takeLowest claims the k lowest-numbered free ranks and appends them to out.
func (p *rankPool) takeLowest(k int, out []int) []int {
	for wi, w := range p.words {
		for w != 0 && k > 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			out = append(out, wi<<6+b)
			k--
			p.free--
		}
		p.words[wi] = w
		if k == 0 {
			break
		}
	}
	return out
}

// ranks returns the free ranks in ascending order.
func (p *rankPool) ranks(out []int) []int {
	for wi, w := range p.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			out = append(out, wi<<6+b)
		}
	}
	return out
}

// Now returns the current virtual time.
func (q *Queue) Now() float64 { return q.c.env.Now() }

// Len returns the number of pending jobs.
func (q *Queue) Len() int { return q.c.pending.Len() }

// Head returns the earliest-arrived pending job, or nil when none is.
func (q *Queue) Head() *JobResult { return q.c.pending.first() }

// Next returns the pending job that arrived after h, or nil at the tail.
// Together with Head it walks the queue in arrival order; h must still be
// pending, so step past a handle before handing it to a removing verb.
func (q *Queue) Next(h *JobResult) *JobResult { return q.c.pending.next(h) }

// Arrivals calls fn, in arrival order, with every pending job that joined
// the queue since the previous call.
func (q *Queue) Arrivals(fn func(h *JobResult)) { q.c.pending.arrivals(fn) }

// Pending reports whether h is still queued — false once it was dropped,
// served from the memo layer, admitted, or absorbed by another admission.
func (q *Queue) Pending(h *JobResult) bool { return q.c.pending.has(h) }

// Expired reports whether pending job h's deadline has passed.
func (q *Queue) Expired(h *JobResult) bool { return q.Now() > h.AbsDeadline() }

// Free returns the number of free ranks.
func (q *Queue) Free() int { return q.pool.free }

// CapFree reports whether the concurrency cap (Spec.MaxConcurrent) leaves
// room for one more running job.
func (q *Queue) CapFree() bool {
	return q.c.spec.MaxConcurrent <= 0 || len(q.running) < q.c.spec.MaxConcurrent
}

// Fits reports whether pending job h can be admitted right now: enough free
// ranks and concurrency-cap headroom.
func (q *Queue) Fits(h *JobResult) bool {
	return h.Job.Ranks <= q.pool.free && q.CapFree()
}

// Usage returns the tenant's accumulated rank-seconds of delivered service
// (charged width x EstCost at admission and trued up to width x actual
// duration at completion) — the fairshare policy's deficit counter.
func (q *Queue) Usage(tenant string) float64 { return q.c.tenantUse[tenant] }

// charge moves tenant's service charge by delta rank-seconds and tells a
// usage-indexing policy.
func (q *Queue) charge(tenant string, delta float64) {
	q.c.tenantUse[tenant] += delta
	if o, ok := q.c.policy.(UsageObserver); ok {
		o.UsageChanged(q, tenant)
	}
}

// Drop removes expired pending job jr from the queue with
// ErrDeadlineExpired. Panics if the job's deadline has not passed — a
// policy may never drop a live job.
func (q *Queue) Drop(jr *JobResult) {
	if !q.Expired(jr) {
		panic(fmt.Sprintf("cluster: policy dropped unexpired job %q", jr.Job.Name))
	}
	c := q.c
	c.pending.remove(jr)
	j := jr.Job
	now := c.env.Now()
	jr.Start, jr.End = now, now
	jr.Err = ErrDeadlineExpired
	jr.DeadlineMiss = true
	if ot := c.obs; ot != nil {
		ot.SetThreadName(0, jr.pid-1, "job "+j.Name)
		ot.Span(0, jr.pid-1, "queued", "sched", jr.Submit, now,
			queuedSpanAttrs(jr)...)
		ot.Instant(0, jr.pid-1, "deadline-drop", "sched", now,
			obs.S("job", j.Name), obs.F("waited", now-jr.Submit),
			obs.F("deadline", j.Deadline))
		m := ot.Metrics()
		m.Counter("cluster_jobs_dropped").Inc()
		m.Counter("cluster_deadline_misses").Inc()
		c.tenantMx(jr).dropped.Inc()
	}
	// Decision record from the same values as the deadline-drop instant
	// above (same job, same now, same waited), so the two streams can never
	// disagree.
	if c.decisionsOn() {
		rec := c.newDecision(jr, decision.Drop)
		rec.Reason = decision.DeadlineDrop
		c.obs.Decision(rec)
	}
}

// TryMemo serves pending job h from the memo layer when possible (cached
// result, or attach to an identical in-flight job); it reports whether the
// job was consumed and removed from the queue.
func (q *Queue) TryMemo(h *JobResult) bool {
	c := q.c
	if !c.memoTryComplete(h, c.env.Now()) {
		return false
	}
	c.pending.remove(h)
	return true
}

// Admit starts pending job jr now on the lowest-numbered free ranks. Panics
// when the job does not fit (check Fits first). jr leaves the queue, and so
// may any number of other pending jobs the memo layer absorbs onto it as
// their donor. Returns jr.
func (q *Queue) Admit(jr *JobResult) *JobResult {
	c := q.c
	j := jr.Job
	if j.Ranks > q.pool.free || !q.CapFree() {
		panic(fmt.Sprintf("cluster: policy admitted job %q (width %d) with %d free ranks",
			j.Name, j.Ranks, q.pool.free))
	}
	now := c.env.Now()
	// Started before placement: the decision record describes the free set
	// the admission decision was made against.
	var rec decision.Record
	if c.decisionsOn() {
		rec = c.newDecision(jr, decision.Admit)
	}
	c.pending.remove(jr)
	members := q.pool.takeLowest(j.Ranks, make([]int, 0, j.Ranks))
	q.running = append(q.running, jr)
	jr.Start = now
	jr.Ranks = members
	q.charge(jr.Tenant(), float64(j.Ranks)*j.EstCost)
	// Admission decision record, before memoAdmit so the donor's record
	// precedes any memo-wait/coalesce records of jobs it absorbs. A policy
	// admitting through AdmitBackfilled tags the record via c.decAdmit.
	if c.decisionsOn() {
		placed := append([]int(nil), members...)
		sort.Ints(placed)
		rec.Ranks = decision.FormatRanks(placed)
		if c.decAdmit.set {
			rec.Reason = c.decAdmit.reason
			rec.Shadow = c.decAdmit.shadow
		}
		c.obs.Decision(rec)
	}
	// Register jr as an in-flight donor and fuse any queued jobs that can
	// ride on its pass; must precede the assignment sends so the fused
	// consumer list is final before ranks start.
	c.memoAdmit(jr, now)
	cache := &adio.PlanCache{}
	if j.PlanKey != "" {
		cache = c.PlanCache(j.PlanKey)
	}
	ctx := &JobContext{
		cluster: c, job: j, res: jr,
		comm:    c.w.SubNS(c.w.NewNamespace(), members),
		cache:   cache,
		clients: make([]*pfs.Client, len(members)),
		errs:    make([]error, len(members)),
		left:    len(members),
	}
	if ot := c.obs; ot != nil {
		ot.SetProcessName(jr.pid, fmt.Sprintf("job %d: %s", jr.pid-1, j.Name))
		ot.SetThreadName(0, jr.pid-1, "job "+j.Name)
		ot.Span(0, jr.pid-1, "queued", "sched", jr.Submit, now,
			queuedSpanAttrs(jr)...)
		jr.runSpan = ot.Begin(0, jr.pid-1, "run", "sched", now,
			obs.S("job", j.Name), obs.I("ranks", int64(len(members))),
			obs.I("first_rank", int64(members[0])))
		for _, wr := range members {
			ot.BindRank(wr, jr.pid)
			ot.SetThreadName(jr.pid, wr, fmt.Sprintf("rank %d", wr))
		}
		ot.Counter("cluster_queue_depth", now, float64(c.pending.Len()))
		ot.Counter("cluster_ranks_busy", now, float64(c.spec.Ranks-q.pool.free))
		m := ot.Metrics()
		m.Counter("cluster_jobs_admitted").Inc()
		m.Histogram("cluster_queue_wait_seconds").Observe(now - jr.Submit)
		mx := c.tenantMx(jr)
		mx.admitted.Inc()
		mx.wait.Observe(now - jr.Submit)
		if ot.Series() != nil {
			c.recordClassWait(j.Class, now-jr.Submit)
		}
	}
	for _, wr := range members {
		c.assign[wr].Send(ctx, 0, now)
	}
	return jr
}

// AdmitBackfilled admits pending job h as an EASY backfill ahead of a
// blocked head holding a reservation at shadow: the same mechanism as
// Admit, plus the backfill telemetry (counter + event-log instant) and the
// decision record's "backfill" tag. Instant and record are derived from the
// same job and shadow values in one place, so the event log and the
// decision stream can never disagree about a backfill.
func (q *Queue) AdmitBackfilled(h *JobResult, shadow float64) *JobResult {
	c := q.c
	c.decAdmit = decAdmitTag{reason: decision.Backfill, shadow: shadow, set: true}
	jr := q.Admit(h)
	c.decAdmit = decAdmitTag{}
	if ot := c.obs; ot != nil {
		ot.Metrics().Counter("cluster_jobs_backfilled").Inc()
		ot.Instant(0, jr.pid-1, "backfill", "sched", c.env.Now(),
			obs.S("job", jr.Job.Name),
			obs.F("reserved_head_at", shadow))
	}
	return jr
}

// complete is the scheduler's completion hook: free the job's ranks, drop
// it from the running set, and true the tenant's service charge up to the
// actual delivered rank-seconds.
func (q *Queue) complete(jr *JobResult) {
	for _, wr := range jr.Ranks {
		q.pool.put(wr)
	}
	if i := slices.Index(q.running, jr); i >= 0 {
		q.running = slices.Delete(q.running, i, i+1)
	}
	q.charge(jr.Tenant(), float64(len(jr.Ranks))*((jr.End-jr.Start)-jr.Job.EstCost))
}

// SchedStats summarizes the scheduling policy's activity over a run; only
// the easy-backfill policy populates it.
type SchedStats struct {
	// Backfilled counts jobs started ahead of a blocked head.
	Backfilled int
	// Slacks records, for each head that held a reservation, how much
	// earlier than the reservation it actually started (reservation minus
	// start). With honest cost estimates every entry is >= 0: backfilling
	// never delayed a head.
	Slacks []float64
}

// SchedStats returns the policy's activity summary. Valid after Run.
func (c *Cluster) SchedStats() SchedStats {
	if p, ok := c.policy.(*easyBackfill); ok {
		return SchedStats{
			Backfilled: p.backfilled,
			Slacks:     append([]float64(nil), p.slacks...),
		}
	}
	return SchedStats{}
}

// ---------------------------------------------------------------------------
// Policy registry

var policyFactories = map[string]func(*Cluster) Policy{
	"fifo":          func(c *Cluster) Policy { return &fifoPolicy{} },
	"easy-backfill": func(c *Cluster) Policy { return &easyBackfill{c: c} },
	"priority":      func(c *Cluster) Policy { return newPriorityPolicy(c) },
	"fairshare":     func(c *Cluster) Policy { return newFairsharePolicy(c) },
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyFactories))
	for n := range policyFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CheckPolicy rejects a name that is not a registered policy ("" = fifo).
// It is the one check behind every door that takes a policy name.
func CheckPolicy(name string) error {
	if _, ok := policyFactories[name]; ok || name == "" {
		return nil
	}
	return fmt.Errorf("unknown policy %q (have %s)", name, strings.Join(PolicyNames(), "|"))
}

// newPolicy resolves a Spec.Policy name ("" = fifo). An unknown name is a
// programming error: every door checks it with CheckPolicy first.
func newPolicy(name string, c *Cluster) Policy {
	if err := CheckPolicy(name); err != nil {
		panic("cluster: " + err.Error())
	}
	if name == "" {
		name = "fifo"
	}
	return policyFactories[name](c)
}

// ---------------------------------------------------------------------------
// fifo

// fifoPolicy is the pre-refactor scheduler's discipline: admit from the head
// while it fits onto the lowest-numbered free ranks; a head that does not fit
// blocks the queue. Its index is the queue itself — best is the head.
type fifoPolicy struct{}

func (*fifoPolicy) Name() string { return "fifo" }

func (*fifoPolicy) Admit(q *Queue) { admitBest(q, (*Queue).Head) }

// admitBest is the round fifo, priority and fairshare share: take the
// discipline's best pending job, drop it if expired, serve it from the memo
// layer if possible, start it if it fits, and otherwise block the queue
// behind it — no skipping, which is what keeps the three starvation-free.
func admitBest(q *Queue, best func(*Queue) *JobResult) {
	for h := best(q); h != nil; h = best(q) {
		if q.Expired(h) {
			q.Drop(h)
			continue
		}
		if q.TryMemo(h) {
			continue
		}
		if !q.Fits(h) {
			blameHeadOfLine(q, h)
			return
		}
		q.Admit(h)
	}
}

// ---------------------------------------------------------------------------
// easy-backfill

// slackEps absorbs float rounding when comparing a candidate's estimated
// completion against the head's reservation.
const slackEps = 1e-9

// easyBackfill is FCFS with EASY (aggressive) backfilling: only the blocked
// head holds a reservation, and later jobs may start out of order only when
// they provably cannot delay it — they are estimated to finish before the
// reservation, or they need no more than the ranks the reservation leaves
// spare. With honest estimates (EstCost >= actual service time) the head
// starts no later than under plain FIFO.
//
// It keeps no index. A blocked round walks every pending job behind the head
// in arrival order, and that walk is not only a search: each visited
// candidate is deadline-dropped or served from the memo layer on the way,
// and those side effects (and their order) are part of the event log. So a
// blocked round stays O(pending) by design; what the walk no longer pays is
// a per-candidate struct copy or a position lookup.
type easyBackfill struct {
	c       *Cluster
	haveRes bool
	resSeq  int     // submission seq of the head the reservation belongs to
	resAt   float64 // reserved start time (shadow time)
	// stats surfaced via Cluster.SchedStats
	backfilled int
	slacks     []float64 // reservation - actual start, per reserved head
}

func (*easyBackfill) Name() string { return "easy-backfill" }

func (p *easyBackfill) Admit(q *Queue) {
admit:
	for head := q.Head(); head != nil; head = q.Head() {
		if q.Expired(head) {
			q.Drop(head)
			continue
		}
		if q.TryMemo(head) {
			continue
		}
		if q.Fits(head) {
			if p.haveRes && p.resSeq == head.Seq() {
				// The formerly blocked head starts: record how much earlier
				// than its reservation it made it (>= 0 with honest
				// estimates — backfilling never delayed it).
				slack := p.resAt - q.Now()
				p.slacks = append(p.slacks, slack)
				p.haveRes = false
				if ot := p.c.obs; ot != nil {
					ot.Metrics().Histogram("cluster_reservation_slack_seconds").Observe(slack)
				}
			}
			q.Admit(head)
			continue
		}
		// With a concurrency cap, a backfilled job would occupy the slot the
		// head waits for; degrade to plain FIFO blocking.
		if p.c.spec.MaxConcurrent > 0 {
			return
		}
		shadow, extra, ok := easyReservation(q, head.Job.Ranks)
		if !ok {
			return // running jobs without estimates: no safe reservation
		}
		p.haveRes, p.resSeq, p.resAt = true, head.Seq(), shadow
		// Scan candidates behind the head in FCFS order for safe backfills.
		for next := q.Next(head); next != nil; {
			cand := next
			next = q.Next(cand) // step first: the verbs below may remove cand
			if q.Expired(cand) {
				q.Drop(cand)
				continue
			}
			if q.TryMemo(cand) {
				continue
			}
			if j := cand.Job; j.Ranks <= q.Free() {
				if j.Ranks <= extra || (j.EstCost > 0 && q.Now()+j.EstCost <= shadow+slackEps) {
					q.AdmitBackfilled(cand, shadow)
					p.backfilled++
					continue admit // queue and free set changed: restart the round
				}
				// Fits the free ranks but could delay the head's reservation:
				// the typed cause for this round's skip record.
				q.Blame(cand, decision.ShadowReservation, p.resSeq, shadow)
			}
		}
		return
	}
}

// easyReservation computes the EASY reservation for a blocked head of the
// given width: the shadow time (earliest virtual time enough ranks free up,
// by running jobs' estimated completions) and the extra ranks (free ranks
// the head will not need at that time). Returns ok=false when a running job
// without an estimate blocks the computation.
func easyReservation(q *Queue, width int) (shadow float64, extra int, ok bool) {
	avail := q.Free()
	shadow = q.Now()
	for _, r := range runningByEstEnd(q) {
		if avail >= width {
			break
		}
		end := estEndOf(r)
		if math.IsInf(end, 1) {
			return 0, 0, false
		}
		avail += len(r.Ranks)
		shadow = end
	}
	if avail < width {
		return 0, 0, false
	}
	return shadow, avail - width, true
}

// ---------------------------------------------------------------------------
// priority

// priorityPolicy serves the highest Job.Priority first; within a priority,
// the most urgent absolute deadline first (none = least urgent), then FCFS.
// The chosen job blocks the queue when it does not fit — no skipping — so
// admission order is deterministic and starvation-free on a finite queue.
//
// The order is static per job, so the policy keeps every pending handle in
// one heap under priBefore and never re-keys; handles removed behind its
// back are discarded when they surface at the top.
type priorityPolicy struct{ heap minHeap[*JobResult] }

func newPriorityPolicy(c *Cluster) *priorityPolicy {
	return &priorityPolicy{heap: minHeap[*JobResult]{less: func(a, b *JobResult) bool {
		c.admitWork++
		return priBefore(a, b)
	}}}
}

func (*priorityPolicy) Name() string { return "priority" }

// priBefore reports whether a should be served before b.
func priBefore(a, b *JobResult) bool {
	if a.Job.Priority != b.Job.Priority {
		return a.Job.Priority > b.Job.Priority
	}
	if da, db := a.AbsDeadline(), b.AbsDeadline(); da != db {
		return da < db
	}
	return a.Seq() < b.Seq()
}

// best returns the pending job to consider next, or nil.
func (p *priorityPolicy) best(q *Queue) *JobResult {
	q.Arrivals(p.heap.push)
	for p.heap.len() > 0 {
		if h := p.heap.top(); q.Pending(h) {
			return h
		}
		p.heap.pop()
	}
	return nil
}

func (p *priorityPolicy) Admit(q *Queue) { admitBest(q, p.best) }

// ---------------------------------------------------------------------------
// fairshare

// fairsharePolicy orders tenants by deficit: each tenant's bucket is
// charged width x service for every job it runs (estimated at admission,
// trued up at completion), and the pending job whose tenant has the
// smallest charge is served first, FCFS within a tenant.
// A flooding tenant therefore pays for its own queue: its charge races
// ahead and other tenants' jobs are interleaved in front of its backlog.
//
// Two levels of index: each tenant holds its pending handles in a min-Seq
// heap (arrival order is not Seq order under SubmitAt), and the tenants with
// anything pending sit in a heap keyed (usage, head Seq). A tenant is
// re-fixed only when its key moves: UsageChanged, a new head arriving, or
// its stale head surfacing at the top. A head removed behind the policy's
// back only makes its tenant sort too early, never too late, so cleaning
// the top until it is live yields the true minimum.
type fairsharePolicy struct {
	tenants map[string]*fsTenant
	heap    minHeap[*fsTenant]
}

type fsTenant struct {
	jobs minHeap[*JobResult]
	key  float64 // Usage as of the last UsageChanged
	pos  int     // index in the tenant heap, -1 while nothing is pending
}

func newFairsharePolicy(c *Cluster) *fairsharePolicy {
	return &fairsharePolicy{
		tenants: make(map[string]*fsTenant),
		heap: minHeap[*fsTenant]{
			less: func(a, b *fsTenant) bool {
				c.admitWork++
				if a.key != b.key {
					return a.key < b.key
				}
				return a.jobs.top().Seq() < b.jobs.top().Seq()
			},
			moved: func(t *fsTenant, i int) { t.pos = i },
		},
	}
}

func (*fairsharePolicy) Name() string { return "fairshare" }

func (p *fairsharePolicy) tenant(q *Queue, name string) *fsTenant {
	t := p.tenants[name]
	if t == nil {
		t = &fsTenant{pos: -1, key: q.Usage(name)}
		t.jobs.less = func(a, b *JobResult) bool {
			q.c.admitWork++
			return a.Seq() < b.Seq()
		}
		p.tenants[name] = t
	}
	return t
}

// UsageChanged re-keys one tenant (UsageObserver).
func (p *fairsharePolicy) UsageChanged(q *Queue, name string) {
	t := p.tenant(q, name)
	t.key = q.Usage(name)
	if t.pos >= 0 {
		p.heap.fix(t.pos)
	}
}

func (p *fairsharePolicy) arrive(q *Queue, h *JobResult) {
	t := p.tenant(q, h.Tenant())
	t.jobs.push(h)
	switch {
	case t.pos < 0:
		p.heap.push(t)
	case t.jobs.top() == h:
		p.heap.fix(t.pos)
	}
}

// best returns the pending job to consider next, or nil.
func (p *fairsharePolicy) best(q *Queue) *JobResult {
	q.Arrivals(func(h *JobResult) { p.arrive(q, h) })
	for p.heap.len() > 0 {
		t := p.heap.top()
		if q.Pending(t.jobs.top()) {
			return t.jobs.top()
		}
		if t.jobs.pop(); t.jobs.len() == 0 {
			p.heap.pop()
		} else {
			p.heap.fix(0)
		}
	}
	return nil
}

func (p *fairsharePolicy) Admit(q *Queue) { admitBest(q, p.best) }
