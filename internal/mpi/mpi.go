// Package mpi is a message-passing runtime for the simulation: ranks are
// sim processes exchanging tagged messages over a fabric.Network cost model.
// It provides the MPI subset the paper's code depends on — blocking and
// non-blocking point-to-point, request completion, and the collectives used
// by two-phase collective I/O and by collective computing (barrier, bcast,
// reduce, allreduce, gatherv, allgather(v)) — with
// MPI-like matching semantics (source+tag, non-overtaking per pair).
//
// Eager delivery is modeled for every message size: a send deposits the
// payload at the destination with an arrival time from the network model and
// never blocks on the receiver. This is the same simplification most
// simulators make; the paper's phenomena (shuffle volume and message-count
// costs) do not depend on rendezvous flow control.
package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Wildcards for Recv/Irecv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// World is the set of all ranks plus the network connecting them.
type World struct {
	env      *sim.Env
	net      *fabric.Network
	ranks    []*Rank
	rt       *obs.RankTime // nil = rank time discarded
	obs      *obs.Tracer   // nil = span tracing disabled (zero-cost fast path)
	nsSeq    int           // tag-namespace allocator (0 = default namespace)
	comms    map[int]int   // per-namespace communicator id allocator
	dilation []func(now, d float64) float64
}

// NewWorld creates n ranks connected by a network with the given parameters.
func NewWorld(env *sim.Env, n int, p fabric.Params) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: world size %d", n))
	}
	w := &World{env: env, net: fabric.New(env, n, p), comms: make(map[int]int)}
	w.ranks = make([]*Rank, n)
	for i := range w.ranks {
		w.ranks[i] = &Rank{w: w, rank: i}
	}
	return w
}

// SetRankTime installs rt as the receiver of every rank's classified time
// from now on. Nil (the default) discards it.
func (w *World) SetRankTime(rt *obs.RankTime) { w.rt = rt }

// SetObs installs a structured span tracer. Nil (the default) disables span
// tracing; the hot paths then skip all span work without allocating.
func (w *World) SetObs(t *obs.Tracer) { w.obs = t }

// Obs returns the installed span tracer (nil when disabled). Layers built on
// mpi (adio, cc) reach the tracer through here.
func (w *World) Obs() *obs.Tracer { return w.obs }

// Net returns the network model (for traffic statistics).
func (w *World) Net() *fabric.Network { return w.net }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// SetRankDilation installs a time-dilation hook for one rank's computation:
// every Sleep of nominal duration d started at virtual time now takes
// f(now, d) instead. Used by fault injection to model slow (straggling)
// ranks. Must be called before Go; nil removes the hook.
func (w *World) SetRankDilation(rank int, f func(now, d float64) float64) {
	if w.dilation == nil {
		w.dilation = make([]func(now, d float64) float64, len(w.ranks))
	}
	w.dilation[rank] = f
}

// Go launches main on every rank (SPMD). Call env.Run() afterwards to
// execute the program.
func (w *World) Go(main func(r *Rank)) {
	for i := range w.ranks {
		rr := w.ranks[i]
		rr.proc = w.env.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			main(rr)
		})
		if w.dilation != nil && w.dilation[i] != nil {
			rr.proc.SetTimeScale(w.dilation[i])
		}
	}
}

// Rank is one simulated MPI process. All methods must be called from the
// rank's own goroutine (inside the function passed to Go).
type Rank struct {
	w       *World
	rank    int
	proc    *sim.Proc
	pending []*envelope // arrived, unmatched messages in delivery order
	posted  []*Request  // posted receives in post order

	// Freelists. The simulation is single-threaded, so these need no locks:
	// envelopes are drawn by senders from the *destination* rank's pool and
	// returned when the matching Wait consumes them; requests are drawn and
	// returned by the owning rank around each Isend/Irecv + Wait pair. In
	// steady state point-to-point traffic allocates nothing.
	envFree []*envelope
	reqFree []*Request
}

// getEnv draws a zeroed envelope from r's pool.
func (r *Rank) getEnv() *envelope {
	if n := len(r.envFree); n > 0 {
		e := r.envFree[n-1]
		r.envFree = r.envFree[:n-1]
		return e
	}
	return &envelope{}
}

// putEnv recycles a consumed envelope, dropping the payload reference.
func (r *Rank) putEnv(e *envelope) {
	*e = envelope{}
	r.envFree = append(r.envFree, e)
}

// getReq draws a request from r's pool. Recycled requests are zeroed here, on
// reuse, not when returned: a completed request keeps its done/owner fields
// until the pool hands it out again, so the double-Wait panic still fires for
// a stale handle. A Wait on a request recycled *and* re-issued is
// indistinguishable from a Wait on the new operation — the usual cost of
// pooling handles.
func (r *Rank) getReq() *Request {
	if n := len(r.reqFree); n > 0 {
		q := r.reqFree[n-1]
		r.reqFree = r.reqFree[:n-1]
		*q = Request{}
		return q
	}
	return &Request{}
}

// putReq recycles a completed request.
func (r *Rank) putReq(q *Request) {
	r.reqFree = append(r.reqFree, q)
}

// Rank returns this process's world rank.
func (r *Rank) Rank() int { return r.rank }

// World returns the owning world.
func (r *Rank) World() *World { return r.w }

// Proc exposes the underlying sim process (for libraries layered on mpi).
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the rank's current virtual time.
func (r *Rank) Now() float64 { return r.w.env.Now() }

// Compute charges seconds of application computation to this rank.
func (r *Rank) Compute(seconds float64) {
	if seconds <= 0 {
		return
	}
	t0 := r.Now()
	r.proc.Sleep(seconds)
	r.w.rt.Record(r.rank, obs.Compute, t0, r.Now())
}

// Sys charges seconds of system-ish CPU work (packing, copies) to this rank.
func (r *Rank) Sys(seconds float64) {
	if seconds <= 0 {
		return
	}
	t0 := r.Now()
	r.proc.Sleep(seconds)
	r.w.rt.Record(r.rank, obs.Sys, t0, r.Now())
}

type envelope struct {
	src     int
	tag     int
	payload interface{}
	bytes   int64
	ready   float64
}

type reqKind uint8

const (
	sendReq reqKind = iota
	recvReq
)

// Request is a non-blocking operation handle, completed by Wait.
type Request struct {
	kind    reqKind
	owner   *Rank
	src     int // recv: matching source (or AnySource)
	tag     int // recv: matching tag (or AnyTag)
	env     *envelope
	freeAt  float64 // send: when the sender may reuse the buffer
	waiting bool
	done    bool
}

func match(e *envelope, src, tag int) bool {
	return (src == AnySource || e.src == src) && (tag == AnyTag || e.tag == tag)
}

// Isend starts a non-blocking send of payload (logical size bytes) to dst
// with the given tag. The payload is shared by reference: simulated programs
// must not mutate a buffer they have sent, same as real MPI before Wait.
func (r *Rank) Isend(dst, tag int, payload interface{}, bytes int64) *Request {
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: rank %d Isend to invalid rank %d", r.rank, dst))
	}
	t0 := r.Now()
	degBefore := r.w.net.DegradedMessages
	senderFree, ready := r.w.net.Transfer(r.rank, dst, bytes, t0)
	// Injection overhead occupies the sender's CPU immediately.
	ov := r.w.net.Params().SendOverhead
	r.proc.Sleep(ov)
	r.w.rt.Record(r.rank, obs.Sys, t0, r.Now())
	if ot := r.w.obs; ot != nil {
		ot.SpanRank(r.rank, "mpi.send", "mpi", t0, r.Now(),
			obs.I("dst", int64(dst)), obs.I("bytes", bytes),
			obs.I("degraded", r.w.net.DegradedMessages-degBefore))
	}
	d := r.w.ranks[dst]
	e := d.getEnv()
	e.src, e.tag, e.payload, e.bytes, e.ready = r.rank, tag, payload, bytes, ready
	d.deliver(e)
	req := r.getReq()
	req.kind, req.owner, req.freeAt = sendReq, r, senderFree
	return req
}

// Send is a blocking send: Isend + Wait.
func (r *Rank) Send(dst, tag int, payload interface{}, bytes int64) {
	r.Wait(r.Isend(dst, tag, payload, bytes))
}

// Irecv posts a non-blocking receive matching (src, tag); use AnySource /
// AnyTag as wildcards.
func (r *Rank) Irecv(src, tag int) *Request {
	req := r.getReq()
	req.kind, req.owner, req.src, req.tag = recvReq, r, src, tag
	for i, e := range r.pending {
		if match(e, src, tag) {
			req.env = e
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return req
		}
	}
	r.posted = append(r.posted, req)
	return req
}

// deliver routes an incoming envelope to the first matching posted receive,
// or queues it as unexpected.
func (r *Rank) deliver(e *envelope) {
	for i, req := range r.posted {
		if match(e, req.src, req.tag) {
			req.env = e
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			if req.waiting {
				r.proc.Unblock(r.w.env.Now())
			}
			return
		}
	}
	r.pending = append(r.pending, e)
}

// Wait blocks until req completes. For receives it returns the payload and
// its size; for sends it returns (nil, 0) once the send buffer is reusable.
func (r *Rank) Wait(req *Request) (interface{}, int64) {
	if req.owner != r {
		panic("mpi: Wait on a request owned by another rank")
	}
	if req.done {
		panic("mpi: Wait on an already-completed request")
	}
	req.done = true
	switch req.kind {
	case sendReq:
		t0 := r.Now()
		r.proc.SleepUntil(req.freeAt)
		if r.Now() > t0 {
			r.w.rt.Record(r.rank, obs.Sys, t0, r.Now())
		}
		r.putReq(req)
		return nil, 0
	default: // recvReq
		t0 := r.Now()
		for req.env == nil {
			req.waiting = true
			r.proc.Block(fmt.Sprintf("mpi recv src=%d tag=%d", req.src, req.tag))
			req.waiting = false
		}
		e := req.env
		r.proc.SleepUntil(e.ready)
		if r.Now() > t0 {
			r.w.rt.Record(r.rank, obs.WaitComm, t0, r.Now())
			if ot := r.w.obs; ot != nil {
				ot.SpanRank(r.rank, "mpi.recv", "mpi", t0, r.Now(),
					obs.I("src", int64(e.src)), obs.I("bytes", e.bytes))
			}
		}
		payload, bytes := e.payload, e.bytes
		r.putEnv(e)
		r.putReq(req)
		return payload, bytes
	}
}

// WaitAll completes every request in order.
func (r *Rank) WaitAll(reqs []*Request) {
	for _, q := range reqs {
		r.Wait(q)
	}
}

// Recv is a blocking receive: Irecv + Wait.
func (r *Rank) Recv(src, tag int) (interface{}, int64) {
	return r.Wait(r.Irecv(src, tag))
}
