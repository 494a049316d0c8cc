// Package sim provides a deterministic, sequential discrete-event
// simulation kernel. Each simulated process is a coroutine (iter.Pull): Run
// pops the next event in (time, seq) order and switches straight to its
// process, which switches straight back when it sleeps, blocks or returns —
// no host run queue, no wake-up of another thread. Exactly one of Run and
// the processes executes at any moment, and which one is decided by the
// event queue alone, so the same program produces the same event order and
// virtual timings on every run and at any GOMAXPROCS.
//
// A panic in a process body surfaces from Run, in Run's caller, with its
// value; runtime.Goexit (t.FailNow) in a body ends the goroutine that called
// Run, defers and all. Processes still parked when Run reports a deadlock
// stay parked: nothing may resume user code past its Block.
//
// The kernel knows nothing about networks, file systems or MPI; it provides
// three primitives on which those models are built:
//
//   - processes (Spawn) with a virtual clock (Now, Sleep, SleepUntil),
//   - mailboxes (NewMailbox) carrying payloads that become visible to the
//     receiver at a sender-chosen ready time, and
//   - resources (NewResource), single FIFO servers used to model contended
//     devices such as OSTs and NICs.
//
// Hot-path design: the event queue and mailbox queues are typed 4-ary
// min-heaps ordered by (time, seq) — no container/heap, no interface{}
// boxing, hole-based sifts instead of swap chains. Because every key is
// unique (seq is a strictly increasing tie-breaker), the pop order is a
// total order independent of heap arity, so swapping the binary heap for a
// 4-ary one is observably byte-identical.
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
)

// Env is a simulation environment. It owns the virtual clock and the event
// queue. Create one with NewEnv, add processes with Spawn, then call Run.
// An Env must not be shared between goroutines: all access happens from the
// one that calls Run and from the process coroutines it switches to.
type Env struct {
	now     float64
	seq     uint64
	queue   eventQueue
	live    int // spawned processes that have not finished
	blocked map[*Proc]blockedInfo
	procSeq int
	stale   uint64 // cancelled wake-ups discarded at pop time
}

// blockedInfo records why and when a process parked in Block, for deadlock
// reporting.
type blockedInfo struct {
	why   string
	since float64
}

// NewEnv returns an empty environment with the clock at 0.
func NewEnv() *Env { return &Env{blocked: make(map[*Proc]blockedInfo)} }

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// SkippedWakeups returns how many cancelled (superseded-generation or
// finished-process) wake-up events the scheduler has discarded so far.
// Cancellation is lazy: a dead event stays queued and is fast-forwarded over
// at pop time without dispatching, so this counter is the cost of lazy
// deletion made visible.
func (e *Env) SkippedWakeups() uint64 { return e.stale }

// event is one queued occurrence. Exactly one of three kinds, dispatched
// without boxing:
//
//   - process resume: p != nil, timer == false — resume p if gen still matches
//   - timer: p != nil, timer == true — Unblock(p) at t if gen still matches
//     (the mailbox Recv re-wake path, kept closure-free)
//   - callback: p == nil — run fn on the scheduler
type event struct {
	t     float64
	seq   uint64 // tie-breaker: FIFO among simultaneous events
	p     *Proc
	gen   uint64 // p's generation when scheduled; stale events are skipped
	fn    func()
	timer bool
}

// eventQueue is a typed 4-ary min-heap of events ordered by (t, seq). A
// 4-ary layout halves the tree depth of a binary heap and keeps the hot
// sift loops on one cache line per level; since (t, seq) keys are unique,
// pop order equals the binary heap's, element for element.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func evLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// push inserts ev, sifting the hole up in place.
func (q *eventQueue) push(ev event) {
	q.ev = append(q.ev, ev)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !evLess(&ev, &q.ev[parent]) {
			break
		}
		q.ev[i] = q.ev[parent]
		i = parent
	}
	q.ev[i] = ev
}

// pop removes and returns the minimum event. It panics if the queue is
// empty: popping from a drained queue is a kernel bug, not a user error.
func (q *eventQueue) pop() event {
	if len(q.ev) == 0 {
		panic("sim: pop from empty event queue")
	}
	min := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // release fn/p references to the GC
	q.ev = q.ev[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if evLess(&q.ev[j], &q.ev[m]) {
					m = j
				}
			}
			if !evLess(&q.ev[m], &last) {
				break
			}
			q.ev[i] = q.ev[m]
			i = m
		}
		q.ev[i] = last
	}
	return min
}

func (e *Env) schedule(t float64, p *Proc) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.push(event{t: t, seq: e.seq, p: p, gen: p.gen})
}

// timerAt schedules a conditional wake-up: at time t, if p's generation is
// still gen, p is unblocked at t. This is Recv's re-wake path as a typed
// event instead of an At closure, so parking allocates nothing.
func (e *Env) timerAt(t float64, p *Proc, gen uint64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.push(event{t: t, seq: e.seq, p: p, gen: gen, timer: true})
}

// At schedules fn to run at virtual time t (clamped to now). fn runs on the
// scheduler, not inside any process, so it must not block.
func (e *Env) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.push(event{t: t, seq: e.seq, fn: fn})
}

// Proc is a simulated process. All Proc methods must be called only from the
// process's own body (the function passed to Spawn), never from outside the
// simulation or from another process.
type Proc struct {
	env      *Env
	name     string
	id       int
	next     func() (struct{}, bool) // Run resumes the body: switch to the coroutine
	yield    func(struct{}) bool     // the body parks: switch back to Run
	gen      uint64
	finished bool
	scale    func(now, d float64) float64
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time of the environment that owns p.
func (p *Proc) Now() float64 { return p.env.now }

// Spawn creates a process that will start running at the current virtual
// time. The returned Proc must be used only inside fn.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{env: e, name: name, id: e.procSeq}
	e.live++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.finished = true
		e.live--
	})
	e.schedule(e.now, p)
	return p
}

// yieldAndWait switches back to Run and parks until Run resumes p.
func (p *Proc) yieldAndWait() { p.yield(struct{}{}) }

// SleepUntil advances the process's clock to t. If t is in the past it
// returns immediately.
func (p *Proc) SleepUntil(t float64) {
	if t <= p.env.now {
		return
	}
	p.env.schedule(t, p)
	p.yieldAndWait()
}

// Sleep advances the process's clock by d seconds of *work* (negative d is a
// no-op). If a time-scale hook is installed (SetTimeScale), the duration is
// dilated through it — the fault-injection hook point for slow-CPU ranks.
// Absolute waits (SleepUntil) are never dilated: a slow core computes slowly
// but does not wait differently.
func (p *Proc) Sleep(d float64) {
	if d > 0 && p.scale != nil {
		d = p.scale(p.env.now, d)
	}
	p.SleepUntil(p.env.now + d)
}

// SetTimeScale installs a dilation hook applied to every subsequent Sleep:
// f(now, d) returns the virtual seconds the work of nominal duration d takes
// when started at time now. f must be deterministic and return a value >= 0.
// Passing nil removes the hook. This is the kernel-level fault-injection
// point used to model straggling (slowed-down) processes.
func (p *Proc) SetTimeScale(f func(now, d float64) float64) { p.scale = f }

// Block parks the process with no scheduled wake-up; some other process must
// call Unblock. why is reported in the deadlock error if nothing ever does.
func (p *Proc) Block(why string) {
	p.env.blocked[p] = blockedInfo{why: why, since: p.env.now}
	p.yieldAndWait()
}

// Unblock schedules a parked process to resume at time t (clamped to now).
// It is a no-op if the process is not currently blocked; this makes it safe
// to wake all waiters of a condition and let each re-check.
func (p *Proc) Unblock(t float64) {
	if _, ok := p.env.blocked[p]; !ok {
		return
	}
	delete(p.env.blocked, p)
	p.env.schedule(t, p)
}

// DeadlockError is returned by Run when the event queue drains while
// processes are still parked in Block.
type DeadlockError struct {
	// Waiting maps each parked process name to the reason it gave to Block.
	Waiting map[string]string
	// Count is the number of parked processes (len(Waiting) undercounts when
	// distinct processes share a name).
	Count int
	// EarliestParked is the virtual time the longest-parked process entered
	// Block — where the pile-up started.
	EarliestParked float64
}

func (d *DeadlockError) Error() string {
	names := make([]string, 0, len(d.Waiting))
	for n := range d.Waiting {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("sim: deadlock, %d process(es) blocked (earliest parked at t=%g):",
		d.Count, d.EarliestParked)
	for _, n := range names {
		s += fmt.Sprintf(" [%s: %s]", n, d.Waiting[n])
	}
	return s
}

// Run drives the simulation until no events remain. It returns a
// *DeadlockError if processes are still blocked when the queue drains, and
// nil otherwise. Run must be called exactly once per Env.
func (e *Env) Run() error {
	for e.queue.len() > 0 {
		ev := e.queue.pop()
		if ev.t < e.now {
			// schedule clamps, so this is a kernel invariant violation.
			panic(fmt.Sprintf("sim: time went backwards: %g < %g", ev.t, e.now))
		}
		e.now = ev.t
		p := ev.p
		if p == nil {
			ev.fn()
			continue
		}
		if p.finished || ev.gen != p.gen {
			// Coarse fast-forward: a cancelled wake-up (its process moved on
			// or finished) is discarded right here, clock advanced, nothing
			// dispatched. Runs of dead events — N-1 of the N timers a
			// repeatedly re-woken receiver leaves behind — drain in this
			// tight loop without touching the process or the blocked map.
			e.stale++
			continue
		}
		if ev.timer {
			p.Unblock(ev.t)
			continue
		}
		if _, stillBlocked := e.blocked[p]; stillBlocked {
			// Every live event for p was scheduled while p was parked in its
			// yield and off the blocked map; gen filtering removes the rest.
			// Reaching here is a kernel bug, not a user error.
			panic("sim: scheduled wake-up for a process parked in Block")
		}
		p.gen++
		p.next()
	}
	if len(e.blocked) > 0 {
		d := &DeadlockError{
			Waiting:        make(map[string]string, len(e.blocked)),
			Count:          len(e.blocked),
			EarliestParked: math.Inf(1),
		}
		for p, info := range e.blocked {
			d.Waiting[p.name] = info.why
			if info.since < d.EarliestParked {
				d.EarliestParked = info.since
			}
		}
		return d
	}
	return nil
}

// Resource is a single FIFO server: each reservation occupies it for a
// service duration, and overlapping requests queue behind one another. It
// models contended serial devices (an OST, a NIC port, a memory channel).
type Resource struct {
	name     string
	nextFree float64

	// Stats, exposed for experiment reporting.
	Requests int
	BusyTime float64
}

// NewResource returns a resource that is free at time 0.
func (e *Env) NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Reserve books the resource for service seconds starting no earlier than
// at, queueing behind existing reservations. It returns the actual start and
// end times and does not block the caller; use Proc.SleepUntil(end) to model
// the requester waiting for completion. Reservations must be made in
// non-decreasing `at` order per simulation (guaranteed when called from
// process context, since virtual time is global and monotonic).
func (r *Resource) Reserve(at, service float64) (start, end float64) {
	start = math.Max(at, r.nextFree)
	end = start + service
	r.nextFree = end
	r.Requests++
	r.BusyTime += service
	return start, end
}

// NextFree returns the earliest time a new reservation could start.
func (r *Resource) NextFree() float64 { return r.nextFree }

// Message is a payload in flight inside a Mailbox, visible to receivers at
// Ready. Bytes is carried for the benefit of higher layers (cost models,
// statistics); the kernel does not interpret it.
type Message[T any] struct {
	Payload T
	Bytes   int64
	Ready   float64
	seq     uint64
}

// Mailbox is an unbounded, ready-time-ordered message queue with typed
// payloads. Senders deliver with an arrival time (computed by a network
// model); Recv blocks the receiving process until the earliest message is
// ready and then returns it. The queue is a typed 4-ary min-heap by
// (Ready, seq); like the event queue, unique keys make pop order
// arity-independent.
type Mailbox[T any] struct {
	env     *Env
	q       []Message[T]
	waiters []*Proc
	// Block reasons, built once: only a deadlock report reads them.
	whyEmpty, whyPending string
}

// NewMailbox returns an empty mailbox with payload type T owned by e.
func NewMailbox[T any](e *Env, name string) *Mailbox[T] {
	return &Mailbox[T]{env: e, whyEmpty: "recv " + name, whyPending: "recv(pending) " + name}
}

// Len returns the number of queued messages (ready or not).
func (mb *Mailbox[T]) Len() int { return len(mb.q) }

// Send queues payload, visible to receivers at time ready (clamped to now).
// Send never blocks; it may be called from process context or from an At
// callback.
func (mb *Mailbox[T]) Send(payload T, bytes int64, ready float64) {
	if ready < mb.env.now {
		ready = mb.env.now
	}
	mb.env.seq++
	mb.push(Message[T]{Payload: payload, Bytes: bytes, Ready: ready, seq: mb.env.seq})
	// Wake waiters now; each re-checks readiness in its Recv loop and, if
	// the earliest message is still in flight, re-parks with a timer at its
	// ready time. Waking at `now` (not at the ready time) is what lets a
	// later, earlier-ready message shorten the wait.
	for _, w := range mb.waiters {
		w.Unblock(mb.env.now)
	}
	mb.waiters = mb.waiters[:0]
}

// Recv blocks p until a message is ready, then removes and returns the
// earliest-ready one, advancing p's clock to its ready time.
func (mb *Mailbox[T]) Recv(p *Proc) Message[T] {
	for {
		why := mb.whyEmpty
		if len(mb.q) > 0 {
			if mb.q[0].Ready <= p.env.now {
				return mb.pop()
			}
			// Park until the earliest known ready time; an earlier delivery
			// re-wakes us sooner via the waiters list. The timer guards on
			// gen so it becomes a no-op if anything woke p first.
			p.env.timerAt(mb.q[0].Ready, p, p.gen)
			why = mb.whyPending
		}
		mb.waiters = append(mb.waiters, p)
		p.Block(why)
		mb.dropWaiter(p)
	}
}

// TryRecv returns the earliest message if one is ready now, without blocking.
func (mb *Mailbox[T]) TryRecv() (Message[T], bool) {
	if len(mb.q) > 0 && mb.q[0].Ready <= mb.env.now {
		return mb.pop(), true
	}
	var zero Message[T]
	return zero, false
}

func (mb *Mailbox[T]) push(m Message[T]) {
	mb.q = append(mb.q, m)
	i := len(mb.q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !msgLess(&m, &mb.q[parent]) {
			break
		}
		mb.q[i] = mb.q[parent]
		i = parent
	}
	mb.q[i] = m
}

func (mb *Mailbox[T]) pop() Message[T] {
	min := mb.q[0]
	n := len(mb.q) - 1
	last := mb.q[n]
	var zero Message[T]
	mb.q[n] = zero // release the payload to the GC
	mb.q = mb.q[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if msgLess(&mb.q[j], &mb.q[m]) {
					m = j
				}
			}
			if !msgLess(&mb.q[m], &last) {
				break
			}
			mb.q[i] = mb.q[m]
			i = m
		}
		mb.q[i] = last
	}
	return min
}

func msgLess[T any](a, b *Message[T]) bool {
	if a.Ready != b.Ready {
		return a.Ready < b.Ready
	}
	return a.seq < b.seq
}

func (mb *Mailbox[T]) dropWaiter(p *Proc) {
	for i, w := range mb.waiters {
		if w == p {
			mb.waiters = append(mb.waiters[:i], mb.waiters[i+1:]...)
			return
		}
	}
}
