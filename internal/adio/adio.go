package adio

import (
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// Request is one rank's access request: sorted disjoint byte runs in the
// file and a destination (or source, for writes) buffer holding the runs'
// bytes concatenated in file order. Buf must have length TotalLength(Runs).
type Request struct {
	Runs []layout.Run
	Buf  []byte
	// ChargeOnly marks a read whose bytes nobody will look at — the caller
	// only wants what the read costs, or obtains the contents some other way
	// (internal/ncfile asks a generator-backed dataset for values). The
	// protocol is the materialising read's to the last charge: the same
	// request exchange, plan, messages and sizes, pack and per-piece costs,
	// OST reservations with timeouts and retries, counters and spans. It
	// differs only where a byte would be produced or copied: an extent is
	// materialised only if something will read it, so aggregators allocate no
	// collective buffer and charge each extent's read, shuffle messages carry
	// piece offsets without data, nothing is unpacked, and a Transform hook
	// receives a nil ext. Buf must be empty. The marker is SPMD-uniform, like
	// hooks: every member of a collective call passes the same, since an
	// aggregator with no runs of its own must know too. Reads only.
	ChargeOnly bool
	// Donated marks a write whose Buf the caller gives up: it will neither
	// read nor modify Buf once the call has returned (internal/ncfile encodes
	// into a buffer of its own per call). Sends are eager, so a remote
	// aggregator may unpack a message after its sender's CollectiveWrite has
	// returned; a buffer the caller keeps is therefore packed — copied into
	// the message — as the pack charge models, and is the caller's again on
	// return. A donated buffer is referred to instead, which saves the copy
	// and holding every in-flight byte twice. The virtual cost is the same
	// either way. A property of each rank's own request, not of the
	// collective call. Writes only.
	Donated bool
}

// Validate checks internal consistency.
func (rq Request) Validate() error {
	if err := validateRuns(rq.Runs); err != nil {
		return err
	}
	if rq.ChargeOnly {
		if len(rq.Buf) != 0 {
			return fmt.Errorf("adio: charge-only request with a %d-byte buffer", len(rq.Buf))
		}
		return nil
	}
	if n := layout.TotalLength(rq.Runs); int64(len(rq.Buf)) != n {
		return fmt.Errorf("adio: buffer %d bytes for %d requested", len(rq.Buf), n)
	}
	return nil
}

// validateWrite is Validate for CollectiveWrite, which has bytes to move.
func (rq Request) validateWrite() error {
	if rq.ChargeOnly {
		return fmt.Errorf("adio: charge-only request passed to a write")
	}
	return rq.Validate()
}

func validateRuns(runs []layout.Run) error {
	for i, r := range runs {
		if r.Length <= 0 || r.Offset < 0 {
			return fmt.Errorf("adio: run %d = %+v invalid", i, r)
		}
		if i > 0 && r.Offset < runs[i-1].End() {
			return fmt.Errorf("adio: runs not sorted/disjoint at %d", i)
		}
	}
	return nil
}

// shuffleMsg carries the pieces one aggregator sends one owner in one
// iteration of the raw-data shuffle phase. Messages are pooled: the receiver
// returns them with putShuffleMsg after unpacking, so steady-state shuffle
// rounds reuse the piece list and the contiguous backing buffer instead of
// allocating fresh fragments per round.
type shuffleMsg struct {
	pieces []shufflePiece
	bytes  int64
	buf    []byte // contiguous backing storage for packed piece data
}

type shufflePiece struct {
	off  int64 // absolute file offset
	data []byte
}

var shufflePool = sync.Pool{New: func() interface{} { return new(shuffleMsg) }}

// getShuffleMsg draws an empty message (with whatever capacity it retained)
// from the pool.
func getShuffleMsg() *shuffleMsg { return shufflePool.Get().(*shuffleMsg) }

// putShuffleMsg recycles a consumed message, dropping all data references but
// keeping the piece-list and backing-buffer capacity.
func putShuffleMsg(m *shuffleMsg) {
	for i := range m.pieces {
		m.pieces[i] = shufflePiece{}
	}
	m.pieces = m.pieces[:0]
	m.buf = m.buf[:0]
	m.bytes = 0
	shufflePool.Put(m)
}

// reserve sizes the message's pooled backing buffer to n bytes.
func (m *shuffleMsg) reserve(n int64) {
	if int64(cap(m.buf)) < n {
		m.buf = make([]byte, n)
	}
	m.buf = m.buf[:n]
}

// packShuffle copies one owner's pieces out of the collective buffer ext
// (which covers the file range starting at readLo) into msg's contiguous
// backing buffer, recording one shufflePiece per fragment. Once msg's pooled
// storage has grown to the iteration's working size, repacking allocates
// nothing. With a nil ext (a charge-only read) the pieces are recorded by
// offset alone: the message keeps its piece count and byte size, which are
// what the receiver is charged for, and carries no data.
func packShuffle(msg *shuffleMsg, pieces []Piece, ext []byte, readLo int64) {
	var total int64
	for _, pc := range pieces {
		total += pc.Run.Length
	}
	if ext != nil {
		msg.reserve(total)
	}
	if cap(msg.pieces) < len(pieces) {
		msg.pieces = make([]shufflePiece, 0, len(pieces))
	}
	msg.pieces = msg.pieces[:0]
	var pos int64
	for _, pc := range pieces {
		var dst []byte
		if ext != nil {
			dst = msg.buf[pos : pos+pc.Run.Length]
			copy(dst, ext[pc.Run.Offset-readLo:pc.Run.End()-readLo])
		}
		msg.pieces = append(msg.pieces, shufflePiece{off: pc.Run.Offset, data: dst})
		pos += pc.Run.Length
	}
	msg.bytes = total
}

// Payload is a caller-supplied replacement for one owner's shuffle message
// in one iteration — the mechanism collective computing uses to ship partial
// results instead of raw data.
type Payload struct {
	Data  interface{}
	Bytes int64
}

// Hooks customizes the two-phase read for collective computing
// (internal/cc). With a nil *Hooks the protocol is plain ROMIO.
type Hooks struct {
	// Transform runs on an aggregator after iteration data lands in the
	// collective buffer ext (covering [it.ReadLo, it.ReadHi); nil when the
	// request is ChargeOnly) and before the shuffle. The returned map
	// replaces the outgoing raw messages: owners with pieces this iteration
	// receive their Payload instead of bytes. Owners present in it.Pieces but
	// absent from the map receive nothing — only allowed when
	// SuppressShuffle is set.
	Transform func(aggrIdx, iter int, it *Iter, ext []byte) map[int]Payload
	// OnRecv consumes transformed payloads on the owners (including the
	// aggregator's own, delivered locally without network cost). src is the
	// sending aggregator's comm rank, so consumers that need a canonical
	// merge order (float64 reductions) can fold per sender rather than in
	// arrival order.
	OnRecv func(src, owner int, payload interface{}, bytes int64)
	// SuppressShuffle disables all per-iteration shuffle traffic: Transform
	// is still called (it accumulates state aggregator-side), but nothing is
	// sent or received — the all-to-one reduce of the paper's §III-C.
	SuppressShuffle bool
}

// collectiveBuffer allocates one collective buffer for aggregator aggrIdx,
// sized by the largest extent it reads; nil for a non-aggregator and for a
// charge-only request, whose extents nothing will read.
func collectiveBuffer(pl *Plan, aggrIdx int, rq *Request) []byte {
	if aggrIdx < 0 || rq.ChargeOnly {
		return nil
	}
	return make([]byte, pl.MaxExtent(aggrIdx))
}

// readExtent starts the read of it's covering extent into buf and returns the
// filled prefix and the read's completion time. With a nil buf (a charge-only
// request) the read is charged and nothing is materialised.
func readExtent(cl *pfs.Client, f *pfs.File, it *Iter, buf []byte) (ext []byte, done float64) {
	n := it.ReadHi - it.ReadLo
	if buf == nil {
		return nil, cl.ChargeReadAsync(f, it.ReadLo, n)
	}
	ext = buf[:n]
	return ext, cl.ReadSparseAsync(f, ext, it.ReadLo, pieceRuns(it))
}

// exchangeRequests allgathers every rank's offset list (phase 0 of two-phase
// I/O) and returns the per-comm-rank run lists: one slice, built once for the
// call and shared by every rank, which nothing may modify. The modeled
// message size is 16 bytes per run, as ROMIO exchanges (offset, length)
// pairs; ROMIO first allgathers the lists' sizes, so that exchange is modeled
// too.
func exchangeRequests(r *mpi.Rank, c *mpi.Comm, runs []layout.Run) [][]layout.Run {
	sizes := mpi.Allgather(c, r, int64(16*len(runs)), 8)
	return mpi.Allgatherv(c, r, runs, sizes)
}

// bandWindows clips every owner's runs to the band [lo, hi): the requests of
// one round of a rebalanced read, each owner's the layout.Window of its runs
// (nil when none reach into the band), all of them capped stretches of one
// exactly sized array.
func bandWindows(reqs [][]layout.Run, lo, hi int64) [][]layout.Run {
	n := 0
	for _, rs := range reqs {
		n += len(overlapping(rs, lo, hi))
	}
	all := make([]layout.Run, 0, n)
	out := make([][]layout.Run, len(reqs))
	for o, rs := range reqs {
		w := overlapping(rs, lo, hi)
		if len(w) == 0 {
			continue
		}
		start := len(all)
		all = append(all, w...)
		first, last := &all[start], &all[len(all)-1]
		*first, _ = layout.Intersect(*first, lo, hi)
		*last, _ = layout.Intersect(*last, lo, hi)
		out[o] = all[start:len(all):len(all)]
	}
	return out
}

// CollectiveRead performs a two-phase collective read. Every member of c
// must call it (SPMD) with its own request (possibly empty) and the same
// aggregators and parameters. On return, rq.Buf holds the requested bytes (a
// ChargeOnly request has none). aggrs lists the aggregator comm ranks; pass
// nil for ROMIO's default of one per node.
func CollectiveRead(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, f *pfs.File,
	rq Request, aggrs []int, p Params) error {
	return CollectiveReadHooked(r, c, cl, f, rq, aggrs, p, nil)
}

// slowFactor is the observed service factor at or above which an OST is
// flagged slow, and a rebalanced read weights its file domains.
const slowFactor = 2

// CollectiveReadHooked is CollectiveRead customized by hooks (see Hooks and
// internal/cc); nil hooks are plain ROMIO. Straggler handling is part of the
// protocol for every caller: p.Read governs each OST request, and
// p.RebalanceRounds > 1 reads the requests' hull in that many contiguous
// bands, Align-aligned (the stripe size when Align is unset), each a
// two-phase read with its own plan. Before each band after the first the
// ranks agree on the file system's health epoch; if an OST is then flagged
// slow, the band's file domains are weighted by observed cost so the
// straggler's stripes spread over more aggregators. The default single band
// reads the requests as they are.
func CollectiveReadHooked(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, f *pfs.File,
	rq Request, aggrs []int, p Params, hooks *Hooks) error {
	p = p.Defaults()
	if err := hooks.check(rq); err != nil {
		return err
	}
	if p.RebalanceRounds > 1 && p.PlanCache == nil {
		return fmt.Errorf("adio: RebalanceRounds %d requires a shared PlanCache", p.RebalanceRounds)
	}
	if aggrs == nil {
		aggrs = DefaultAggregators(c.Size(), r.World().Net().Params().RanksPerNode)
	}
	if p.Read.Timeout > 0 {
		defer cl.SetReadPolicy(cl.ReadPolicy()) // the client's own, evaluated now
		cl.SetReadPolicy(p.Read)
	}
	reqs := exchangeRequests(r, c, rq.Runs)
	rounds := 1
	var lo, hi, width int64
	if p.RebalanceRounds > 1 {
		var empty bool
		lo, hi, empty = hull(reqs)
		if !empty {
			rounds = p.RebalanceRounds
			if p.Align <= 0 {
				p.Align = f.StripeSize()
			}
			width = (hi - lo + int64(rounds) - 1) / int64(rounds)
			if rem := width % p.Align; rem != 0 {
				width += p.Align - rem
			}
		}
	}
	me := c.RankOf(r)
	health := cl.FS().Health()
	var bufPos int64
	for j := 0; j < rounds; j++ {
		// Health sync: rebalancing decisions must see every rank's
		// observations from the previous round, not just those of whichever
		// rank happens to arrive first. The allreduce models the health
		// exchange a real implementation would perform, and its agreed
		// maximum epoch keys the round's plan (see roundKey). Round 0 plans
		// are health-independent and stay shared under epoch 0.
		key := roundKey{rounds: rounds, round: j}
		if j > 0 {
			key.epoch = c.Allreduce(r, health.Epoch(), 8, maxEpoch).(int64)
		}
		var band *Domain
		if rounds > 1 {
			blo := lo + int64(j)*width
			bhi := min(blo+width, hi)
			if blo >= bhi {
				continue
			}
			band = &Domain{blo, bhi}
		}
		pl := sharedPlan(cl, f, reqs, band, aggrs, p, key)
		brq := rq
		if band != nil {
			// The bands partition every request in file order, so each
			// band's bytes are the next stretch of the caller's buffer.
			brq = Request{Runs: pl.reqs[me], ChargeOnly: rq.ChargeOnly}
			if hooks == nil && !rq.ChargeOnly {
				n := pl.prefix[me][len(brq.Runs)]
				brq.Buf = rq.Buf[bufPos : bufPos+n]
				bufPos += n
			}
		}
		if err := twoPhaseRead(r, c, cl, f, brq, pl, me, p, hooks); err != nil {
			return err
		}
	}
	return nil
}

// check validates rq for a read with these hooks: a plain read fills rq.Buf,
// so the buffer must fit the runs; a hooked read hands each extent to
// Transform and needs only the runs.
func (h *Hooks) check(rq Request) error {
	if h == nil {
		return rq.Validate()
	}
	if err := validateRuns(rq.Runs); err != nil {
		return err
	}
	if h.Transform == nil {
		return fmt.Errorf("adio: hooks without Transform")
	}
	if h.OnRecv == nil && !h.SuppressShuffle {
		return fmt.Errorf("adio: transformed shuffle without OnRecv")
	}
	return nil
}

// maxEpoch is the Allreduce operator of the health sync.
func maxEpoch(a, b interface{}) interface{} { return max(a.(int64), b.(int64)) }

// sharedPlan returns the plan of round key.round, from p.PlanCache when
// another rank of the call has built it already. A non-nil band plans the
// requests' bytes inside it, a round of a rebalanced read: the rank that
// builds the plan cuts the band windows, and the others read theirs from the
// plan. From the second round of a rebalanced read on, while some OST is
// flagged slow, the plan's file domains are weighted by observed cost, and
// the rank that builds it counts the rebalance on its client.
func sharedPlan(cl *pfs.Client, f *pfs.File, reqs [][]layout.Run, band *Domain, aggrs []int, p Params, key roundKey) *Plan {
	if pl := p.PlanCache.get(key); pl != nil {
		return pl
	}
	if band != nil {
		reqs = bandWindows(reqs, band.Lo, band.Hi)
	}
	var pl *Plan
	var flagged []int
	health := cl.FS().Health()
	if key.round > 0 {
		flagged = health.Flagged(slowFactor)
	}
	if len(flagged) > 0 {
		cl.Retry.Rebalances++
		cl.Retry.FlaggedSlowOSTs += int64(len(flagged))
		pl = buildPlanWeighted(reqs, aggrs, p.CB, p.Align, f, health)
	} else {
		pl = BuildPlan(reqs, aggrs, p.CB, p.Align)
	}
	p.PlanCache.put(key, pl)
	return pl
}

// aggShuffle sends iteration it's data to its owners: raw pieces packed from
// ext, or the transformed payloads when hooks are active. Local data (owner
// == me) bypasses the network. Returns the send requests to wait on.
func aggShuffle(r *mpi.Rank, c *mpi.Comm, pl *Plan, me int, tag int,
	it *Iter, ext []byte, rq *Request, cost *fabric.Params, hooks *Hooks,
	transformed map[int]Payload) []*mpi.Request {
	var reqs []*mpi.Request
	i := 0
	for i < len(it.Pieces) {
		owner := it.Pieces[i].Owner
		j := i
		var total int64
		for j < len(it.Pieces) && it.Pieces[j].Owner == owner {
			total += it.Pieces[j].Run.Length
			j++
		}
		if hooks != nil {
			pay, ok := transformed[owner]
			if ok {
				if owner == me {
					hooks.OnRecv(me, owner, pay.Data, pay.Bytes)
				} else {
					reqs = append(reqs, r.Isend(c.WorldRank(owner), tag, pay.Data, pay.Bytes))
				}
			} else if !hooks.SuppressShuffle {
				panic(fmt.Sprintf("adio: Transform omitted owner %d in iteration with its data", owner))
			}
		} else if owner == me {
			// Local raw data: unpack straight into my buffer.
			if !rq.ChargeOnly {
				for _, pc := range it.Pieces[i:j] {
					src := ext[pc.Run.Offset-it.ReadLo : pc.Run.End()-it.ReadLo]
					copy(rq.Buf[pl.BufPos(me, pc.Run.Offset):], src)
				}
			}
			r.Sys(float64(total)/cost.PackRate + float64(j-i)*cost.PieceCost)
		} else {
			msg := getShuffleMsg()
			packShuffle(msg, it.Pieces[i:j], ext, it.ReadLo)
			// Pack cost: bytes plus a per-fragment charge.
			r.Sys(float64(total)/cost.PackRate + float64(j-i)*cost.PieceCost)
			reqs = append(reqs, r.Isend(c.WorldRank(owner), tag, msg, total))
		}
		i = j
	}
	return reqs
}

// recvIter receives every message owner `me` expects in iteration k,
// unpacking raw pieces into rq.Buf or handing transformed payloads to
// hooks.OnRecv. expectPos is the cursor into pl.Expect(me); the updated
// cursor is returned.
func recvIter(r *mpi.Rank, c *mpi.Comm, pl *Plan, me, k, tag, expectPos int,
	rq *Request, cost *fabric.Params, hooks *Hooks) int {
	exp := pl.Expect(me)
	for expectPos < len(exp) && exp[expectPos].It == k {
		e := exp[expectPos]
		if pl.Aggrs[e.Aggr] == me {
			// Served by my own aggregator role with a local copy in aggShuffle.
			expectPos++
			continue
		}
		src := c.WorldRank(pl.Aggrs[e.Aggr])
		v, n := r.Recv(src, tag)
		if hooks != nil {
			hooks.OnRecv(pl.Aggrs[e.Aggr], me, v, n)
		} else {
			msg := v.(*shuffleMsg)
			if !rq.ChargeOnly {
				for _, pc := range msg.pieces {
					copy(rq.Buf[pl.BufPos(me, pc.off):], pc.data)
				}
			}
			r.Sys(float64(n)/cost.PackRate + float64(len(msg.pieces))*cost.PieceCost)
			putShuffleMsg(msg)
		}
		expectPos++
	}
	return expectPos
}

// twoPhaseRead is one round of the collective read under plan pl: the plan's
// CPU charge, then the aggregator/owner loop. Blocking, each iteration's read
// is issued when the iteration starts. With p.Pipeline it is issued one
// iteration ahead into a second collective buffer, so each shuffle overlaps
// the next read: the "nonblocking" collective I/O configuration profiled in
// the paper's Figure 1.
func twoPhaseRead(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, f *pfs.File,
	rq Request, pl *Plan, me int, p Params, hooks *Hooks) error {
	cost := r.World().Net().Params()
	r.Sys(float64(pl.TotalRuns()) * cost.PlanCost)
	if ot := r.World().Obs(); ot != nil {
		ot.Metrics().Counter("adio_collective_reads").Inc()
	}
	tagBase := c.ReserveTags(r, pl.MaxIters+1)
	aggrIdx := pl.AggrIndex(me)
	ot := r.World().Obs()
	bufs := [2][]byte{collectiveBuffer(pl, aggrIdx, &rq)}
	if p.Pipeline {
		bufs[1] = collectiveBuffer(pl, aggrIdx, &rq)
	} else {
		bufs[1] = bufs[0]
	}
	myIters := 0
	if aggrIdx >= 0 {
		myIters = len(pl.Iters[aggrIdx])
	}

	// Read state: at most one read in flight. Double buffering is keyed by
	// read sequence number (not iteration parity) so the in-flight read never
	// targets the buffer the current shuffle reads from.
	readSeq := 0
	nextRead := 0 // next iteration index to consider for reading
	pendingIter := -1
	var pendingDone float64
	var pendingExt []byte

	issueNext := func() {
		for nextRead < myIters && pl.Iters[aggrIdx][nextRead].Empty() {
			nextRead++
		}
		if nextRead >= myIters {
			return
		}
		it := &pl.Iters[aggrIdx][nextRead]
		pendingExt, pendingDone = readExtent(cl, f, it, bufs[readSeq%2])
		pendingIter = nextRead
		readSeq++
		nextRead++
	}

	if aggrIdx >= 0 && p.Pipeline {
		issueNext()
	}
	receiving := hooks == nil || !hooks.SuppressShuffle
	expectPos := 0
	for k := 0; k < pl.MaxIters; k++ {
		tag := tagBase - k
		if aggrIdx >= 0 && k < myIters && !pl.Iters[aggrIdx][k].Empty() {
			it := &pl.Iters[aggrIdx][k]
			t0 := r.Now()
			if !p.Pipeline {
				issueNext()
			}
			if pendingIter != k {
				return fmt.Errorf("adio: read loop lost iteration %d (pending %d)", k, pendingIter)
			}
			cl.AwaitIO(pendingDone)
			tRead := r.Now()
			ext := pendingExt
			pendingIter = -1
			if p.Pipeline {
				// Start the next read before shuffling this iteration: the
				// overlap that makes the protocol non-blocking.
				issueNext()
			}
			var transformed map[int]Payload
			if hooks != nil {
				transformed = hooks.Transform(aggrIdx, k, it, ext)
			}
			tXf := r.Now()
			if receiving {
				r.WaitAll(aggShuffle(r, c, pl, me, tag, it, ext, &rq, &cost, hooks, transformed))
			}
			if p.Obs != nil {
				p.Obs.ObserveIter(aggrIdx, k, tRead-t0, r.Now()-tRead, it.ReadHi-it.ReadLo)
			}
			if ot != nil {
				emitIterSpans(ot, r, aggrIdx, k, it, t0, tRead, tXf, r.Now())
			}
		}
		if receiving {
			expectPos = recvIter(r, c, pl, me, k, tag, expectPos, &rq, &cost, hooks)
		}
	}
	return nil
}

// pieceRuns lists an iteration's piece byte ranges for sparse reading.
func pieceRuns(it *Iter) []layout.Run {
	runs := make([]layout.Run, len(it.Pieces))
	for i, pc := range it.Pieces {
		runs[i] = pc.Run
	}
	return runs
}

// emitIterSpans records one aggregator iteration as nested spans: the
// enclosing adio.iter, the read portion [t0, tRead] (for the pipelined
// protocol this is the wait for the previously issued read), and the shuffle
// portion [tXf, end] — the transform between tRead and tXf belongs to the cc
// layer, which emits its own spans there.
func emitIterSpans(ot *obs.Tracer, r *mpi.Rank, aggrIdx, k int, it *Iter,
	t0, tRead, tXf, end float64) {
	ot.SpanRank(r.Rank(), "adio.iter", "adio", t0, end,
		obs.I("iter", int64(k)), obs.I("aggr", int64(aggrIdx)),
		obs.I("bytes", it.ReadHi-it.ReadLo))
	if tRead > t0 {
		ot.SpanRank(r.Rank(), "adio.read", "adio", t0, tRead)
	}
	if end > tXf {
		ot.SpanRank(r.Rank(), "adio.shuffle", "adio", tXf, end)
	}
}
