// Package pfs models a Lustre-like parallel file system: files are striped
// round-robin over a set of OSTs (object storage targets), each OST is a
// single FIFO server with a per-request latency and a service bandwidth, and
// clients pay a small CPU cost to issue each request.
//
// Data is real: reads return actual bytes from a backend (an in-memory store
// or a deterministic synthetic generator), so computation layered on top is
// genuinely performed and verifiable — only the *timing* is simulated.
package pfs

import (
	"fmt"
	"math"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Params describes the storage system. Zero values are replaced by
// Hopper-like defaults via Defaults.
type Params struct {
	// NumOSTs is the number of OSTs in the file system (Hopper: 156).
	NumOSTs int
	// OSTBandwidth is each OST's service bandwidth (bytes/second). With 156
	// OSTs at 250 MB/s the aggregate is ~39 GB/s, near Hopper's 35 GB/s peak.
	OSTBandwidth float64
	// OSTLatency is the per-request service latency (seek + RPC).
	OSTLatency float64
	// ClientOverhead is CPU time a client spends issuing one request.
	ClientOverhead float64
	// DefaultStripeSize is used when a file is created with stripe size 0.
	DefaultStripeSize int64
}

// Defaults fills unset fields.
func (p Params) Defaults() Params {
	if p.NumOSTs == 0 {
		p.NumOSTs = 156
	}
	if p.OSTBandwidth == 0 {
		p.OSTBandwidth = 250e6
	}
	if p.OSTLatency == 0 {
		p.OSTLatency = 0.5e-3
	}
	if p.ClientOverhead == 0 {
		p.ClientOverhead = 10e-6
	}
	if p.DefaultStripeSize == 0 {
		p.DefaultStripeSize = 4 << 20
	}
	return p
}

// slowWindow is one injected straggle episode on an OST: between onset and
// recovery every request served by the OST takes factor times longer.
type slowWindow struct {
	onset, recovery float64
	factor          float64
}

// FS is a simulated parallel file system.
type FS struct {
	env    *sim.Env
	params Params
	osts   []*sim.Resource
	slow   [][]slowWindow // per-OST straggle schedule
	health *Health
	obs    *obs.Tracer // nil = span tracing disabled (zero-cost fast path)

	// Per-OST read-latency accumulation (queueing + service of the served
	// attempt, per stripe piece), feeding the telemetry dashboard's heatmap.
	ostReadSec []float64
	ostReads   []int64

	// Stats.
	BytesRead    int64
	BytesWritten int64
	Requests     int64
	// Timeouts / Retries count read requests abandoned for exceeding a
	// client's ReadPolicy and their reissues (see Client.SetReadPolicy).
	Timeouts int64
	Retries  int64
}

// New creates a file system in env. Params are defaulted.
func New(env *sim.Env, p Params) *FS {
	p = p.Defaults()
	fs := &FS{env: env, params: p}
	fs.osts = make([]*sim.Resource, p.NumOSTs)
	fs.slow = make([][]slowWindow, p.NumOSTs)
	fs.health = newHealth(p.NumOSTs)
	fs.ostReadSec = make([]float64, p.NumOSTs)
	fs.ostReads = make([]int64, p.NumOSTs)
	for i := range fs.osts {
		fs.osts[i] = env.NewResource(fmt.Sprintf("ost%d", i))
	}
	return fs
}

// SlowOST injects a straggler: OST i serves every request factor times
// slower from now on (factor 1 restores normal speed). Used to study
// robustness to storage noise, the paper's fault-tolerance future work.
func (fs *FS) SlowOST(i int, factor float64) {
	// Close any open-ended episodes at the current clock, then (for factor>1)
	// open a new persistent one. This preserves the original semantics while
	// episodes and permanent slowdowns compose.
	now := fs.env.Now()
	for j := range fs.slow[i] {
		if fs.slow[i][j].recovery > now {
			fs.slow[i][j].recovery = now
		}
	}
	if factor > 1 {
		fs.slow[i] = append(fs.slow[i], slowWindow{onset: now, recovery: inf, factor: factor})
	}
}

// SlowOSTWindow injects a straggle episode: OST i serves factor times slower
// for requests starting in [onset, recovery). Episodes may overlap; the worst
// factor wins. Evaluated on the virtual clock, so runs are bit-reproducible.
func (fs *FS) SlowOSTWindow(i int, factor, onset, recovery float64) {
	if factor <= 1 || recovery <= onset {
		return
	}
	fs.slow[i] = append(fs.slow[i], slowWindow{onset: onset, recovery: recovery, factor: factor})
}

var inf = math.Inf(1)

// slowFactorAt returns the service-time multiplier of OST i for a request
// whose service starts at time t.
func (fs *FS) slowFactorAt(i int, t float64) float64 {
	f := 1.0
	for _, w := range fs.slow[i] {
		if t >= w.onset && t < w.recovery && w.factor > f {
			f = w.factor
		}
	}
	return f
}

// Params returns the (defaulted) parameters in use.
func (fs *FS) Params() Params { return fs.params }

// SetObs installs a structured span tracer on the file system; clients
// created afterwards emit pfs.read/pfs.write request spans. Nil (the
// default) disables span tracing at zero cost on the request hot path.
func (fs *FS) SetObs(t *obs.Tracer) { fs.obs = t }

// Health returns the observed-health tracker shared by all clients of fs.
func (fs *FS) Health() *Health { return fs.health }

// Health accumulates what clients *observed* about each OST — the last seen
// service-time factor, and an epoch that every change of it and every
// timeout bumps — as opposed to the injected ground truth, which a real
// system cannot read. The rebalanced collective read of internal/adio
// consults it to steer work away from flagged-slow OSTs. All updates happen
// in deterministic simulation order.
type Health struct {
	lastFactor []float64 // most recently observed service factor per OST
	epoch      int64     // bumped on every observation that changes the picture
}

func newHealth(n int) *Health {
	h := &Health{lastFactor: make([]float64, n)}
	for i := range h.lastFactor {
		h.lastFactor[i] = 1
	}
	return h
}

// observe records one request's view of OST i.
func (h *Health) observe(i int, factor float64, timedOut bool) {
	if factor != h.lastFactor[i] || timedOut {
		h.epoch++
	}
	h.lastFactor[i] = factor
}

// Epoch returns the health-observation epoch: it increments whenever an
// observation changes an OST's last-seen service factor (fault onset or
// recovery) or records a timeout. Consumers that cache decisions derived from
// health — rebalanced collective-I/O plans, notably — key them by epoch so a
// decision built against one fault picture is never served under another. On
// a healthy file system the epoch stays 0, so epoch-keyed caches still share.
func (h *Health) Epoch() int64 { return h.epoch }

// ObservedFactor returns the most recently observed service factor of OST i
// (1 if never observed or healthy).
func (h *Health) ObservedFactor(i int) float64 { return h.lastFactor[i] }

// Flagged returns the OSTs whose last observed factor is at least threshold,
// in ascending index order (deterministic).
func (h *Health) Flagged(threshold float64) []int {
	var out []int
	for i, f := range h.lastFactor {
		if f >= threshold {
			out = append(out, i)
		}
	}
	return out
}

// OSTReadLatency returns each OST's mean observed read latency (queueing
// plus service per stripe piece, virtual seconds; 0 for OSTs that served no
// reads). This is the dashboard heatmap's input: a straggling OST shows up
// as a hot cell because queueing and the slow factor both stretch its mean.
func (fs *FS) OSTReadLatency() []float64 {
	out := make([]float64, len(fs.osts))
	for i := range out {
		if fs.ostReads[i] > 0 {
			out[i] = fs.ostReadSec[i] / float64(fs.ostReads[i])
		}
	}
	return out
}

// OSTBusyTimes returns each OST's cumulative busy time, for load reports.
func (fs *FS) OSTBusyTimes() []float64 {
	return fs.AppendOSTBusyTimes(make([]float64, 0, len(fs.osts)))
}

// AppendOSTBusyTimes appends each OST's cumulative busy time to dst, so a
// caller sampling them every round can reuse one slice.
func (fs *FS) AppendOSTBusyTimes(dst []float64) []float64 {
	for _, o := range fs.osts {
		dst = append(dst, o.BusyTime)
	}
	return dst
}

// Backend supplies file contents. Offsets are absolute file offsets.
type Backend interface {
	// ReadAt fills p with the bytes at offset off.
	ReadAt(p []byte, off int64)
	// WriteAt stores p at offset off.
	WriteAt(p []byte, off int64)
	// Size returns the current logical file size.
	Size() int64
}

// MemBackend is an in-memory backing store that grows on write.
type MemBackend struct {
	data []byte
}

// NewMemBackend returns a store pre-sized to size zero bytes.
func NewMemBackend(size int64) *MemBackend {
	return &MemBackend{data: make([]byte, size)}
}

// ReadAt implements Backend; reads past EOF yield zeros.
func (m *MemBackend) ReadAt(p []byte, off int64) {
	n := 0
	if off < int64(len(m.data)) {
		n = copy(p, m.data[off:])
	}
	clear(p[n:])
}

// WriteAt implements Backend, growing the store as needed.
func (m *MemBackend) WriteAt(p []byte, off int64) {
	if need := off + int64(len(p)); need > int64(len(m.data)) {
		grown := make([]byte, need)
		copy(grown, m.data)
		m.data = grown
	}
	copy(m.data[off:], p)
}

// Size implements Backend.
func (m *MemBackend) Size() int64 { return int64(len(m.data)) }

// Bytes exposes the raw store for test assertions.
func (m *MemBackend) Bytes() []byte { return m.data }

// SynthBackend generates file contents on demand with a deterministic fill
// function, so virtual files of hundreds of GB need no resident memory. It
// is read-only; writes panic.
type SynthBackend struct {
	size int64
	fill func(off int64, p []byte)
}

// NewSynthBackend returns a synthetic file of the given size whose contents
// at offset off are produced by fill (which must be deterministic in off).
func NewSynthBackend(size int64, fill func(off int64, p []byte)) *SynthBackend {
	return &SynthBackend{size: size, fill: fill}
}

// ReadAt implements Backend.
func (s *SynthBackend) ReadAt(p []byte, off int64) { s.fill(off, p) }

// WriteAt implements Backend by panicking: synthetic files are read-only.
func (s *SynthBackend) WriteAt(p []byte, off int64) {
	panic("pfs: write to read-only synthetic backend")
}

// Size implements Backend.
func (s *SynthBackend) Size() int64 { return s.size }

// File is a striped file.
type File struct {
	fs          *FS
	name        string
	backend     Backend
	stripeSize  int64
	stripeCount int // number of OSTs the file is striped over
	firstOST    int // starting OST index for round-robin placement
}

// Create registers a file striped over stripeCount OSTs (starting at OST
// firstOST, wrapping) with the given stripe size (0 = FS default).
func (fs *FS) Create(name string, backend Backend, stripeCount int, stripeSize int64, firstOST int) *File {
	if stripeCount <= 0 || stripeCount > len(fs.osts) {
		panic(fmt.Sprintf("pfs: stripe count %d with %d OSTs", stripeCount, len(fs.osts)))
	}
	if stripeSize <= 0 {
		stripeSize = fs.params.DefaultStripeSize
	}
	return &File{fs: fs, name: name, backend: backend,
		stripeSize: stripeSize, stripeCount: stripeCount,
		firstOST: ((firstOST % len(fs.osts)) + len(fs.osts)) % len(fs.osts)}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the backend size.
func (f *File) Size() int64 { return f.backend.Size() }

// StripeSize returns the stripe size in bytes.
func (f *File) StripeSize() int64 { return f.stripeSize }

// ostIndexFor returns the OST index serving the stripe containing off.
func (f *File) ostIndexFor(off int64) int {
	stripe := off / f.stripeSize
	return (f.firstOST + int(stripe%int64(f.stripeCount))) % len(f.fs.osts)
}

// OSTIndex exposes the OST serving the stripe containing off, so the
// rebalanced collective read can cost file ranges against observed OST health.
func (f *File) OSTIndex(off int64) int { return f.ostIndexFor(off) }

// pieces invokes fn for each maximal stripe-contained piece of [off,off+n).
func (f *File) pieces(off, n int64, fn func(pieceOff, pieceLen int64)) {
	for n > 0 {
		inStripe := f.stripeSize - off%f.stripeSize
		if inStripe > n {
			inStripe = n
		}
		fn(off, inStripe)
		off += inStripe
		n -= inStripe
	}
}

// ReadPolicy bounds how long a client waits on one OST read request before
// abandoning and reissuing it. The zero value disables timeouts.
type ReadPolicy struct {
	// Timeout abandons a request whose predicted completion exceeds issue
	// time + Timeout (seconds). 0 disables.
	Timeout float64
	// Retries caps reissues per request piece; after the last retry the
	// request is accepted however slow it is (data must still arrive).
	Retries int
	// Backoff adds Backoff*attempt seconds before each reissue.
	Backoff float64
}

// RetryStats counts a client's straggler handling: the timeouts and reissues
// of its ReadPolicy, and the health-weighted read rounds internal/adio
// planned on this client's rank (Rebalances), with the OSTs flagged slow at
// each (FlaggedSlowOSTs).
type RetryStats struct {
	Timeouts        int64
	Retries         int64
	BackoffSeconds  float64
	Rebalances      int64
	FlaggedSlowOSTs int64
}

// Client is a per-rank handle that charges I/O time to a specific simulated
// process and accounts it to a RankTime.
type Client struct {
	fs     *FS
	proc   *sim.Proc
	rank   int
	rt     *obs.RankTime // nil = rank time discarded
	obs    *obs.Tracer   // copied from the FS at creation; nil = disabled
	policy ReadPolicy
	// Latency histogram handles, created once at client creation so the
	// per-request hot path is a direct Observe, not a map lookup. Nil when
	// obs is disabled (Observe on nil no-ops, but we still gate on cl.obs).
	histRead, histWrite *obs.Histogram

	// Retry counts this client's straggler handling.
	Retry RetryStats
}

// Client creates a handle for the given process. A nil rt discards the
// rank's time accounting.
func (fs *FS) Client(proc *sim.Proc, rank int, rt *obs.RankTime) *Client {
	cl := &Client{fs: fs, proc: proc, rank: rank, rt: rt, obs: fs.obs}
	if fs.obs != nil {
		reg := fs.obs.Metrics()
		cl.histRead = reg.Histogram("pfs_read_seconds")
		cl.histWrite = reg.Histogram("pfs_write_seconds")
	}
	return cl
}

// SetReadPolicy installs (or, with the zero value, removes) a read
// timeout/retry policy on this client.
func (cl *Client) SetReadPolicy(p ReadPolicy) { cl.policy = p }

// ReadPolicy returns the client's current policy.
func (cl *Client) ReadPolicy() ReadPolicy { return cl.policy }

// FS returns the file system this client talks to.
func (cl *Client) FS() *FS { return cl.fs }

// reserveAll reserves OST service for every stripe piece of [off, off+n)
// issued at issueAt and returns the latest completion time. Reads governed by
// a ReadPolicy abandon a piece whose predicted completion overshoots the
// timeout — without occupying the OST — and reissue it after a backoff; the
// final permitted attempt always accepts, since the data must arrive.
func (cl *Client) reserveAll(f *File, off, n int64, issueAt float64, read bool) float64 {
	p := cl.fs.params
	end := issueAt
	f.pieces(off, n, func(po, pl int64) {
		i := f.ostIndexFor(po)
		nominal := p.OSTLatency + float64(pl)/p.OSTBandwidth
		at := issueAt
		for attempt := 0; ; attempt++ {
			start := at
			if nf := cl.fs.osts[i].NextFree(); nf > start {
				start = nf
			}
			factor := cl.fs.slowFactorAt(i, start)
			svc := nominal * factor
			if read && cl.policy.Timeout > 0 && attempt < cl.policy.Retries &&
				start+svc-at > cl.policy.Timeout {
				wait := cl.policy.Timeout + cl.policy.Backoff*float64(attempt)
				at += wait
				cl.Retry.Timeouts++
				cl.Retry.Retries++
				cl.Retry.BackoffSeconds += wait
				cl.fs.Timeouts++
				cl.fs.Retries++
				cl.fs.health.observe(i, factor, true)
				continue
			}
			_, pieceEnd := cl.fs.osts[i].Reserve(at, svc)
			cl.fs.health.observe(i, factor, false)
			if read {
				cl.fs.ostReadSec[i] += pieceEnd - at
				cl.fs.ostReads[i]++
			}
			if pieceEnd > end {
				end = pieceEnd
			}
			break
		}
	})
	return end
}

// Read performs one blocking contiguous read of len(buf) bytes at offset
// off. Stripe pieces on different OSTs are serviced concurrently (completion
// is their max); pieces on the same OST queue. Returns the completion time.
func (cl *Client) Read(f *File, buf []byte, off int64) float64 {
	// The bytes are taken at issue, before the first yield: a write that
	// lands while the request is in flight is not seen.
	if len(buf) > 0 {
		f.backend.ReadAt(buf, off)
	}
	return cl.ChargeRead(f, off, int64(len(buf)))
}

// Write performs one blocking contiguous write, symmetric with Read.
func (cl *Client) Write(f *File, buf []byte, off int64) float64 {
	if len(buf) > 0 {
		f.backend.WriteAt(buf, off)
	}
	return cl.charge(f, off, int64(len(buf)), true)
}

// ChargeRead is the blocking twin of ChargeReadAsync: it models one blocking
// contiguous read of [off, off+n) — everything Read does to the clock, the
// OSTs, the counters, the rank time and the span — and moves no data. Read is the
// backend fill plus this.
func (cl *Client) ChargeRead(f *File, off, n int64) float64 {
	return cl.charge(f, off, n, false)
}

// charge is the one model of a blocking transfer of [off, off+n).
func (cl *Client) charge(f *File, off, n int64, write bool) float64 {
	if n == 0 {
		return cl.proc.Now()
	}
	p := cl.fs.params
	t0 := cl.proc.Now()
	toBefore, rtBefore := cl.Retry.Timeouts, cl.Retry.Retries
	// Issue cost: one client CPU overhead per OST request piece.
	var npieces int
	f.pieces(off, n, func(po, pl int64) { npieces++ })
	issueDone := t0 + float64(npieces)*p.ClientOverhead
	end := cl.reserveAll(f, off, n, issueDone, !write)
	cl.fs.Requests += int64(npieces)
	if write {
		cl.fs.BytesWritten += n
	} else {
		cl.fs.BytesRead += n
	}
	cl.proc.SleepUntil(issueDone)
	cl.rt.Record(cl.rank, obs.Sys, t0, cl.proc.Now())
	w0 := cl.proc.Now()
	cl.proc.SleepUntil(end)
	if cl.proc.Now() > w0 {
		cl.rt.Record(cl.rank, obs.WaitIO, w0, cl.proc.Now())
	}
	if ot := cl.obs; ot != nil {
		name := "pfs.read"
		if write {
			name = "pfs.write"
			cl.histWrite.Observe(cl.proc.Now() - t0)
		} else {
			cl.histRead.Observe(cl.proc.Now() - t0)
		}
		ot.SpanRank(cl.rank, name, "pfs", t0, cl.proc.Now(),
			obs.I("bytes", n), obs.I("pieces", int64(npieces)),
			obs.I("timeouts", cl.Retry.Timeouts-toBefore),
			obs.I("retries", cl.Retry.Retries-rtBefore))
	}
	return cl.proc.Now()
}

// ChargeReadAsync models one contiguous asynchronous read of [off, off+n) —
// it blocks the client only for the issue overhead and returns the time the
// data would be in place — moving no data: the issue overhead on the client,
// one request per stripe piece, the OST reservations with the client's
// timeout/retry policy, FS.BytesRead/Requests, the latency histogram and the
// pfs.read span. The non-blocking two-phase pipeline uses it to overlap
// reading with shuffling. A caller that can obtain the extent's contents
// without its bytes (a generator-backed file feeding a map) charges the read
// this way; ReadSparseAsync is this plus the backend fill.
func (cl *Client) ChargeReadAsync(f *File, off, n int64) (done float64) {
	if n == 0 {
		return cl.proc.Now()
	}
	p := cl.fs.params
	t0 := cl.proc.Now()
	toBefore, rtBefore := cl.Retry.Timeouts, cl.Retry.Retries
	var npieces int
	f.pieces(off, n, func(po, pl int64) { npieces++ })
	issueDone := t0 + float64(npieces)*p.ClientOverhead
	end := cl.reserveAll(f, off, n, issueDone, true)
	cl.fs.Requests += int64(npieces)
	cl.fs.BytesRead += n
	cl.proc.SleepUntil(issueDone)
	cl.rt.Record(cl.rank, obs.Sys, t0, cl.proc.Now())
	// The span covers only the issue portion: the rank is free until AwaitIO,
	// so a span spanning the full service time would overlap whatever the
	// rank does in between on the same trace track. The latency histogram
	// still records issue-to-data-arrival, the read latency an SLO cares
	// about.
	if ot := cl.obs; ot != nil {
		cl.histRead.Observe(end - t0)
		ot.SpanRank(cl.rank, "pfs.read", "pfs", t0, cl.proc.Now(),
			obs.I("bytes", n), obs.I("pieces", int64(npieces)),
			obs.I("timeouts", cl.Retry.Timeouts-toBefore),
			obs.I("retries", cl.Retry.Retries-rtBefore),
			obs.I("async", 1))
	}
	return end
}

// AwaitIO blocks the client until time done (a completion returned by
// ChargeReadAsync or ReadSparseAsync), recording the gap as I/O wait.
func (cl *Client) AwaitIO(done float64) {
	w0 := cl.proc.Now()
	cl.proc.SleepUntil(done)
	if cl.proc.Now() > w0 {
		cl.rt.Record(cl.rank, obs.WaitIO, w0, cl.proc.Now())
		cl.obs.SpanRank(cl.rank, "pfs.await", "pfs", w0, cl.proc.Now())
	}
}

// ReadSparseAsync models one contiguous read of [off, off+len(buf)) —
// identical timing, statistics and OST contention to ChargeReadAsync — and
// materializes only the given piece ranges (absolute file offsets, sorted,
// within the extent) into buf. Two-phase I/O reads covering extents whose
// holes are never consumed; skipping their generation makes synthetic
// paper-scale runs affordable without changing anything observable. As with
// Read, the pieces are taken at issue, before the client's first yield.
func (cl *Client) ReadSparseAsync(f *File, buf []byte, off int64, pieces []layout.Run) (done float64) {
	for _, pc := range pieces {
		lo := pc.Offset - off
		if lo < 0 || pc.End()-off > int64(len(buf)) {
			panic(fmt.Sprintf("pfs: sparse piece %+v outside extent [%d,+%d)", pc, off, len(buf)))
		}
		f.backend.ReadAt(buf[lo:lo+pc.Length], pc.Offset)
	}
	return cl.ChargeReadAsync(f, off, int64(len(buf)))
}
