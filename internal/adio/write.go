package adio

import (
	"sort"

	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// CollectiveWrite performs a two-phase collective write: owners ship their
// pieces to the aggregators each iteration; aggregators assemble the
// collective buffer (reading first when the pieces leave holes in the
// covering extent — ROMIO's read-modify-write) and issue one large write.
// Every member of c must call it with its own request.
func CollectiveWrite(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, f *pfs.File,
	rq Request, aggrs []int, p Params) error {
	p = p.Defaults()
	if err := rq.validateWrite(); err != nil {
		return err
	}
	if aggrs == nil {
		aggrs = DefaultAggregators(c.Size(), r.World().Net().Params().RanksPerNode)
	}
	reqs := exchangeRequests(r, c, rq.Runs)
	pl := sharedPlan(cl, f, reqs, nil, aggrs, p, roundKey{rounds: 1})
	cost := r.World().Net().Params()
	r.Sys(float64(pl.TotalRuns()) * cost.PlanCost)
	tagBase := c.ReserveTags(r, pl.MaxIters+1)
	me := c.RankOf(r)
	aggrIdx := pl.AggrIndex(me)
	var buf []byte
	if aggrIdx >= 0 {
		buf = make([]byte, pl.MaxExtent(aggrIdx))
	}

	// pendingLocal holds this rank's owner==aggregator messages between the
	// ship phase and the assemble phase of each iteration.
	var pendingLocal localStashT
	for k := 0; k < pl.MaxIters; k++ {
		tag := tagBase - k
		// Phase A: ship my pieces for iteration k to each aggregator.
		var sends []*mpi.Request
		for a := range pl.Aggrs {
			if k >= len(pl.Iters[a]) {
				continue
			}
			it := &pl.Iters[a][k]
			// A remote aggregator unpacks at its Recv, which may come after
			// this call has returned (sends are eager: the last WaitAll
			// completes once the message has left) and the caller has reused
			// rq.Buf. So unless the buffer is donated, remote pieces are
			// packed into the message's pooled buffer — the copy the pack
			// charge below models. The local stash is consumed later in this
			// same iteration and aliases rq.Buf.
			remote := pl.Aggrs[a] != me
			pack := remote && !rq.Donated
			mine := ownerPieces(it, me)
			if len(mine) == 0 {
				continue
			}
			msg := getShuffleMsg()
			for _, pc := range mine {
				msg.bytes += pc.Run.Length
			}
			if pack {
				msg.reserve(msg.bytes)
			}
			var pos int64
			for _, pc := range mine {
				data := rq.Buf[pl.BufPos(me, pc.Run.Offset):][:pc.Run.Length]
				if pack {
					packed := msg.buf[pos : pos+pc.Run.Length]
					copy(packed, data)
					data = packed
					pos += pc.Run.Length
				}
				msg.pieces = append(msg.pieces, shufflePiece{off: pc.Run.Offset, data: data})
			}
			r.Sys(float64(msg.bytes) / cost.PackRate)
			if !remote {
				// Local: assembled below via pending list.
				localStash(&pendingLocal, a, msg)
				continue
			}
			sends = append(sends, r.Isend(c.WorldRank(pl.Aggrs[a]), tag, msg, msg.bytes))
		}

		// Phase B: aggregator assembles and writes.
		if aggrIdx >= 0 && k < len(pl.Iters[aggrIdx]) {
			it := &pl.Iters[aggrIdx][k]
			if !it.Empty() {
				ext := buf[:it.ReadHi-it.ReadLo]
				// Read-modify-write when the pieces do not fully cover the
				// extent.
				if coveredBytes(it) != it.ReadHi-it.ReadLo {
					cl.Read(f, ext, it.ReadLo)
				}
				// Collect one message per owner with data this iteration.
				for _, owner := range ownersOf(it) {
					var msg *shuffleMsg
					if owner == me {
						msg = takeLocal(&pendingLocal, aggrIdx)
					} else {
						v, n := r.Recv(c.WorldRank(owner), tag)
						msg = v.(*shuffleMsg)
						r.Sys(float64(n) / cost.PackRate)
					}
					if msg != nil {
						for _, pc := range msg.pieces {
							copy(ext[pc.off-it.ReadLo:], pc.data)
						}
						putShuffleMsg(msg)
					}
				}
				cl.Write(f, ext, it.ReadLo)
			}
		}
		r.WaitAll(sends)
	}
	return nil
}

// localStashT queues a rank's owner==aggregator messages per aggregator
// index between the ship and assemble phases of CollectiveWrite.
type localStashT map[int][]*shuffleMsg

func localStash(s *localStashT, aggr int, m *shuffleMsg) {
	if *s == nil {
		*s = localStashT{}
	}
	(*s)[aggr] = append((*s)[aggr], m)
}

// takeLocal pops the next stashed message, or nil if none was shipped.
func takeLocal(s *localStashT, aggr int) *shuffleMsg {
	q := (*s)[aggr]
	if len(q) == 0 {
		return nil
	}
	m := q[0]
	(*s)[aggr] = q[1:]
	return m
}

// ownerPieces returns owner o's pieces of the iteration, which are contiguous:
// pieces are sorted by (owner, offset).
func ownerPieces(it *Iter, o int) []Piece {
	i := sort.Search(len(it.Pieces), func(i int) bool { return it.Pieces[i].Owner >= o })
	j := i
	for j < len(it.Pieces) && it.Pieces[j].Owner == o {
		j++
	}
	return it.Pieces[i:j]
}

// coveredBytes sums the piece lengths of an iteration (pieces are disjoint).
func coveredBytes(it *Iter) int64 {
	var n int64
	for _, pc := range it.Pieces {
		n += pc.Run.Length
	}
	return n
}

// ownersOf lists the owners with data in the iteration, in ascending order
// (pieces are sorted by owner).
func ownersOf(it *Iter) []int {
	var out []int
	prev := -1
	for _, pc := range it.Pieces {
		if pc.Owner != prev {
			out = append(out, pc.Owner)
			prev = pc.Owner
		}
	}
	return out
}

// IndependentRead reads rq without cooperation, applying data sieving:
// runs separated by holes no larger than p.SieveThreshold are fetched in one
// covering read and the extra bytes discarded. This is the paper's
// independent-I/O baseline (Figure 3). A ChargeOnly request charges the same
// covering reads and moves nothing. p.Read governs the covering reads as it
// does a collective read's.
func IndependentRead(cl *pfs.Client, f *pfs.File, rq Request, p Params) error {
	p = p.Defaults()
	if err := rq.Validate(); err != nil {
		return err
	}
	if p.Read.Timeout > 0 {
		defer cl.SetReadPolicy(cl.ReadPolicy()) // the client's own, evaluated now
		cl.SetReadPolicy(p.Read)
	}
	segs := sieveSegments(rq.Runs, p.SieveThreshold)
	var bufPos int64
	ri := 0
	for _, sg := range segs {
		if rq.ChargeOnly {
			cl.ChargeRead(f, sg.Offset, sg.Length)
			continue
		}
		tmp := make([]byte, sg.Length)
		cl.Read(f, tmp, sg.Offset)
		for ri < len(rq.Runs) && rq.Runs[ri].End() <= sg.End() {
			r := rq.Runs[ri]
			copy(rq.Buf[bufPos:], tmp[r.Offset-sg.Offset:r.End()-sg.Offset])
			bufPos += r.Length
			ri++
		}
	}
	return nil
}

// sieveSegments coalesces runs whose gaps are at most threshold into
// covering segments.
func sieveSegments(runs []layout.Run, threshold int64) []layout.Run {
	var out []layout.Run
	for _, r := range runs {
		if n := len(out); n > 0 && r.Offset-out[n-1].End() <= threshold {
			out[n-1].Length = r.End() - out[n-1].Offset
		} else {
			out = append(out, r)
		}
	}
	return out
}
