// Package adio reimplements the ROMIO layer the paper modifies: two-phase
// collective read/write over a striped parallel file, plus independent I/O
// with data sieving. The two-phase access plan — file-domain partitioning,
// aggregator assignment, per-iteration collective-buffer windows, and the
// (aggregator, iteration, owner) piece index — is exposed as a standalone
// Plan, and the collective read takes Hooks, so that the collective-computing
// runtime (internal/cc) drives the same protocol with a map inserted between
// the phases.
//
// Straggler handling is part of the read protocol, so every reader gets it:
// Params.Read bounds each OST request with a timeout and reissues
// (collective and independent reads alike), and Params.RebalanceRounds reads
// a collective request in bands whose file domains are replanned around OSTs
// observed slow.
package adio

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/layout"
	"repro/internal/pfs"
)

// Params tunes the I/O protocols. Zero values are defaulted. What the
// protocols cost in CPU time (packing, pieces, planning) is the machine's,
// not the call's: each call reads it once from the rank's world
// (fabric.Params).
type Params struct {
	// CB is the collective buffer size per aggregator (ROMIO cb_buffer_size;
	// paper default 4 MB).
	CB int64
	// Align, when positive, aligns file-domain boundaries down to multiples
	// of this (typically the stripe size, as ROMIO's Lustre driver does).
	Align int64
	// Pipeline enables the non-blocking two-phase protocol: the read of
	// iteration k+1 overlaps the shuffle of iteration k (the paper's
	// baseline configuration for Figure 1).
	Pipeline bool
	// SieveThreshold is the maximum hole size data sieving will read through
	// in independent I/O.
	SieveThreshold int64
	// Obs, when non-nil, receives per-iteration aggregator timings (used to
	// regenerate the paper's Figure 1 profile).
	Obs Observer
	// PlanCache, when non-nil, shares one physical Plan across the ranks of
	// a single collective call: every rank builds an identical plan anyway,
	// so the simulation constructs it once (virtual CPU time is still
	// charged per rank). Use a fresh cache per collective operation.
	PlanCache *PlanCache
	// Read, when its Timeout is positive, is installed on the client for the
	// duration of a read, collective or independent: OST requests predicted
	// to overshoot the timeout are abandoned and reissued (see
	// pfs.ReadPolicy), the answer to internal/fault's transient stragglers.
	Read pfs.ReadPolicy
	// RebalanceRounds, when > 1, reads a collective request's hull in that
	// many contiguous bands, each a two-phase read with its own plan, and
	// from the second band on weights file domains by observed OST health
	// once an OST is flagged slow (see CollectiveReadHooked). Requires a
	// PlanCache. 0 or 1 reads in one round.
	RebalanceRounds int
}

// Observer receives aggregator-side per-iteration phase timings.
type Observer interface {
	// ObserveIter reports one aggregator iteration: time exposed waiting for
	// the read, time spent in the shuffle (pack + send or transform), and
	// the bytes served.
	ObserveIter(aggrIdx, iter int, readSec, shuffleSec float64, bytes int64)
}

// PlanCache shares plans across the ranks of a collective call, one per
// round of the read (a single-round read and CollectiveWrite have one). The
// first rank to reach a round builds its plan and the rest reuse the
// identical object, mirroring what real ROMIO achieves by construction (all
// ranks run the same deterministic planner). The zero value is empty; a nil
// cache shares nothing.
type PlanCache struct {
	plans []cachedPlan
}

// roundKey identifies one plan in a PlanCache: round `round` of a read in
// `rounds` bands. Round alone is not a safe key across jobs: rebalanced plans
// embed health observations from build time, so a plan built during a
// straggler episode must not be served to a job running after recovery (or
// vice versa). epoch is the pfs.Health epoch the ranks agreed on before the
// round (always 0 for the first); on a healthy file system it stays 0, and
// same-shape jobs share round plans.
type roundKey struct {
	rounds, round int
	epoch         int64
}

type cachedPlan struct {
	key roundKey
	pl  *Plan
}

// get returns the plan cached under key, or nil.
func (c *PlanCache) get(key roundKey) *Plan {
	if c == nil {
		return nil
	}
	for _, e := range c.plans {
		if e.key == key {
			return e.pl
		}
	}
	return nil
}

// put caches pl under key.
func (c *PlanCache) put(key roundKey, pl *Plan) {
	if c != nil {
		c.plans = append(c.plans, cachedPlan{key, pl})
	}
}

// RoundPlans returns the plans cached for round `round` of a multi-round
// read, in the order they were built: one per health epoch the round was
// planned under. For tests.
func (c *PlanCache) RoundPlans(round int) []*Plan {
	var out []*Plan
	for _, e := range c.plans {
		if e.key.rounds > 1 && e.key.round == round {
			out = append(out, e.pl)
		}
	}
	return out
}

// Defaults fills unset fields.
func (p Params) Defaults() Params {
	if p.CB == 0 {
		p.CB = 4 << 20
	}
	if p.SieveThreshold == 0 {
		p.SieveThreshold = 64 << 10
	}
	return p
}

// Piece is a fragment of one owner's request, assigned to one aggregator
// iteration. Run is in absolute file byte offsets.
type Piece struct {
	Owner int // comm rank whose request this satisfies
	Run   layout.Run
}

// Iter is one collective-buffer iteration of one aggregator: the covering
// extent actually read ([ReadLo, ReadHi)) and the pieces served from it,
// sorted by (owner, offset).
type Iter struct {
	ReadLo, ReadHi int64
	Pieces         []Piece
}

// Empty reports whether the iteration serves no data.
func (it *Iter) Empty() bool { return len(it.Pieces) == 0 }

// expectEntry records that an owner will receive a message from aggregator
// index Aggr in iteration It.
type expectEntry struct {
	It   int
	Aggr int
}

// Plan is the deterministic two-phase access plan. Every rank builds an
// identical Plan from the allgathered offset lists, exactly as in ROMIO.
type Plan struct {
	// Aggrs lists the aggregator comm ranks, in order.
	Aggrs []int
	// CB is the collective buffer size used.
	CB int64
	// Iters[a] are aggregator a's iterations; ragged (aggregators with less
	// data have fewer iterations).
	Iters [][]Iter
	// MaxIters is the global iteration count, max over aggregators.
	MaxIters int
	// Domains[a] is aggregator a's file domain [Lo, Hi).
	Domains []Domain

	reqs   [][]layout.Run // per owner, sorted byte runs
	runs   int            // offset-list runs across all owners
	prefix [][]int64      // per owner, prefix sums of run lengths
	expect [][]expectEntry
	aggIdx map[int]int // comm rank -> aggregator index
}

// Domain is a half-open byte range of the file.
type Domain struct{ Lo, Hi int64 }

// TotalRuns returns the number of offset-list runs across all owners.
func (pl *Plan) TotalRuns() int { return pl.runs }

// AggrIndex returns the aggregator index of comm rank r, or -1.
func (pl *Plan) AggrIndex(r int) int {
	if i, ok := pl.aggIdx[r]; ok {
		return i
	}
	return -1
}

// MaxExtent returns the largest covering extent (ReadHi - ReadLo) over
// aggregator a's iterations: the collective buffer the aggregator actually
// needs, which is at most CB and far below it when the whole request is
// small. Sizing the buffer by it instead of CB leaves every iteration's
// ext = buf[:ReadHi-ReadLo] the same prefix of a fresh zeroed buffer.
func (pl *Plan) MaxExtent(a int) int64 {
	var n int64
	for i := range pl.Iters[a] {
		if it := &pl.Iters[a][i]; it.ReadHi-it.ReadLo > n {
			n = it.ReadHi - it.ReadLo
		}
	}
	return n
}

// Expect returns owner o's expected incoming messages as (iteration,
// aggregator-index) entries sorted by iteration then aggregator.
func (pl *Plan) Expect(o int) []expectEntry { return pl.expect[o] }

// BufPos maps a file byte offset inside one of owner o's runs to the
// position in o's contiguous destination buffer (runs concatenated in file
// order, as MPI datatypes flatten).
func (pl *Plan) BufPos(o int, fileOff int64) int64 {
	runs := pl.reqs[o]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].End() > fileOff })
	if i == len(runs) || fileOff < runs[i].Offset {
		panic(fmt.Sprintf("adio: offset %d not in owner %d's request", fileOff, o))
	}
	return pl.prefix[o][i] + (fileOff - runs[i].Offset)
}

// newPlanShell validates inputs, allocates a Plan with its request index,
// and computes the global hull. empty reports that no data was requested.
// reqs is kept, not copied: it is the call's exchanged lists, shared by
// every rank, and nothing may modify it.
func newPlanShell(reqs [][]layout.Run, aggrs []int, cb int64) (pl *Plan, lo, hi int64, empty bool) {
	if len(aggrs) == 0 {
		panic("adio: no aggregators")
	}
	if cb <= 0 {
		panic(fmt.Sprintf("adio: collective buffer %d", cb))
	}
	pl = &Plan{Aggrs: append([]int(nil), aggrs...), CB: cb, reqs: reqs,
		aggIdx: make(map[int]int, len(aggrs))}
	for i, a := range pl.Aggrs {
		pl.aggIdx[a] = i
	}
	for _, rs := range reqs {
		pl.runs += len(rs)
	}
	// prefix[o][i] = bytes of owner o's request before run i; the final
	// entry is the owner's total, so ReqBytes reads prefix[o][len(runs)].
	// Every owner's sums are a capped stretch of one array.
	pl.prefix = make([][]int64, len(reqs))
	pf := make([]int64, 0, pl.runs+len(reqs))
	for o, rs := range reqs {
		start := len(pf)
		pf = append(pf, 0)
		for _, r := range rs {
			pf = append(pf, pf[len(pf)-1]+r.Length)
		}
		pl.prefix[o] = pf[start:len(pf):len(pf)]
	}
	lo, hi, empty = hull(reqs)
	na := len(aggrs)
	pl.Iters = make([][]Iter, na)
	pl.Domains = make([]Domain, na)
	pl.expect = make([][]expectEntry, len(reqs))
	return pl, lo, hi, empty
}

// hull returns the byte range [lo, hi) spanning every owner's runs; empty
// reports that no owner requested anything.
func hull(reqs [][]layout.Run) (lo, hi int64, empty bool) {
	empty = true
	for _, rs := range reqs {
		if len(rs) == 0 {
			continue
		}
		l, h := layout.Bounds(rs)
		if empty || l < lo {
			lo = l
		}
		if empty || h > hi {
			hi = h
		}
		empty = false
	}
	return lo, hi, empty
}

// BuildPlan computes the two-phase plan for the given per-owner byte-run
// requests (sorted, disjoint, coalesced — as layout.Flatten produces),
// aggregator comm ranks, collective buffer size, and domain alignment.
func BuildPlan(reqs [][]layout.Run, aggrs []int, cb, align int64) *Plan {
	pl, lo, hi, empty := newPlanShell(reqs, aggrs, cb)
	if empty { // no data requested at all
		return pl
	}
	evenDomains(pl.Domains, lo, hi, align)
	pl.fillIters()
	return pl
}

// evenDomains partitions the hull [lo, hi) evenly into len(dst) file
// domains, each a multiple of align long when align > 0.
func evenDomains(dst []Domain, lo, hi, align int64) {
	na := int64(len(dst))
	ds := (hi - lo + na - 1) / na
	if align > 0 && ds%align != 0 {
		ds += align - ds%align
	}
	if ds <= 0 {
		ds = 1
	}
	for a := range dst {
		dlo := lo + int64(a)*ds
		dhi := dlo + ds
		if dlo > hi {
			dlo, dhi = hi, hi
		}
		if dhi > hi {
			dhi = hi
		}
		dst[a] = Domain{dlo, dhi}
	}
}

// buildPlanWeighted is BuildPlan with cost-proportional file domains: the
// hull is split into align-sized chunks (align > 0), each chunk priced by
// observedCost, and domain boundaries are placed at chunk boundaries so every
// aggregator carries ≈ 1/na of the total cost. Observed-slow OSTs cost more,
// so this shifts file-domain bytes away from stragglers — the robustness the
// paper's future-work section gestures at.
func buildPlanWeighted(reqs [][]layout.Run, aggrs []int, cb, align int64, f *pfs.File, h *pfs.Health) *Plan {
	pl, lo, hi, empty := newPlanShell(reqs, aggrs, cb)
	if empty {
		return pl
	}
	weightedDomains(pl.Domains, lo, hi, align, f, h)
	pl.fillIters()
	return pl
}

// weightedDomains places len(dst)-1 monotone cuts of the hull [lo, hi) at
// align-sized chunk boundaries, each minimizing the distance between the
// cumulative observed cost and its even-share target. The cut lands *before*
// a large chunk when that is closer — a greedy always-include rule would hand
// a whole straggling stripe to one domain.
func weightedDomains(dst []Domain, lo, hi, align int64, f *pfs.File, h *pfs.Health) {
	nchunks := int((hi - lo + align - 1) / align)
	costs := make([]float64, nchunks)
	var total float64
	for i := range costs {
		clo := lo + int64(i)*align
		costs[i] = observedCost(f, h, clo, min(clo+align, hi))
		total += costs[i]
	}
	na := len(dst)
	bounds := make([]int64, na+1)
	bounds[0], bounds[na] = lo, hi
	cum := 0.0
	j := 0
	for a := 1; a < na; a++ {
		target := total * float64(a) / float64(na)
		for j < nchunks && math.Abs(cum+costs[j]-target) <= math.Abs(cum-target) {
			cum += costs[j]
			j++
		}
		bounds[a] = min(lo+int64(j)*align, hi)
	}
	for a := range dst {
		dst[a] = Domain{bounds[a], bounds[a+1]}
	}
}

// observedCost prices the file range [lo, hi) as its bytes, each weighted by
// the last observed service factor of the OST serving its stripe.
func observedCost(f *pfs.File, h *pfs.Health, lo, hi int64) float64 {
	ss := f.StripeSize()
	var ct float64
	for off := lo; off < hi; {
		n := min(ss-off%ss, hi-off)
		ct += float64(n) * h.ObservedFactor(f.OSTIndex(off))
		off += n
	}
	return ct
}

// overlapping returns the stretch of sorted, disjoint runs that overlaps
// [lo, hi), in place: its first and last runs may reach past lo and hi.
func overlapping(runs []layout.Run, lo, hi int64) []layout.Run {
	i := sort.Search(len(runs), func(i int) bool { return runs[i].End() > lo })
	j := i + sort.Search(len(runs)-i, func(k int) bool { return runs[i+k].Offset >= hi })
	return runs[i:j]
}

// eachPiece calls visit for every piece of the file domain d: each owner's
// runs clipped to d and split at the collective-buffer grid anchored at st,
// with k the piece's iteration. Owners come in order and each owner's runs in
// file order, so the pieces of any one iteration come in (owner, offset)
// order.
func (pl *Plan) eachPiece(d Domain, st int64, visit func(k, owner int, r layout.Run)) {
	cb := pl.CB
	for o, rs := range pl.reqs {
		for _, r := range overlapping(rs, d.Lo, d.Hi) {
			off, end := max(r.Offset, d.Lo), min(r.End(), d.Hi)
			for off < end {
				k := int((off - st) / cb)
				e := min(end, st+int64(k+1)*cb)
				visit(k, o, layout.Run{Offset: off, Length: e - off})
				off = e
			}
		}
	}
}

// eachMessage calls visit once for every message of the raw shuffle — one
// per (iteration, aggregator, owner with pieces in that iteration) — in
// (iteration, aggregator) order.
func (pl *Plan) eachMessage(visit func(owner, k, a int)) {
	for k := 0; k < pl.MaxIters; k++ {
		for a, its := range pl.Iters {
			if k >= len(its) {
				continue
			}
			prev := -1
			for _, pc := range its[k].Pieces {
				if pc.Owner != prev {
					visit(pc.Owner, k, a)
					prev = pc.Owner
				}
			}
		}
	}
}

// zeroed returns s resized to n zeros, reusing its storage when it can.
func zeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// fillIters populates Iters, MaxIters, and the expected-message index from
// pl.Domains — the domain-independent second half of plan construction. It
// counts before it fills, so each aggregator's pieces and the expect index
// are capped stretches of one exactly sized array each, and it reads each
// owner's runs in place. Pieces land in their iteration's stretch in the
// order eachPiece visits them, which is (owner, offset) order: a stable
// counting sort by iteration, with no sort.
func (pl *Plan) fillIters() {
	var cnt []int
	for a, d := range pl.Domains {
		if d.Hi <= d.Lo {
			continue
		}
		// Bounds [st, en) of requested bytes within the domain.
		var st, en int64
		var any bool
		for _, rs := range pl.reqs {
			w := overlapping(rs, d.Lo, d.Hi)
			if len(w) == 0 {
				continue
			}
			l, h := max(w[0].Offset, d.Lo), min(w[len(w)-1].End(), d.Hi)
			if !any || l < st {
				st = l
			}
			if !any || h > en {
				en = h
			}
			any = true
		}
		if !any {
			continue
		}
		ntimes := int((en - st + pl.CB - 1) / pl.CB)
		cnt = zeroed(cnt, ntimes)
		total := 0
		pl.eachPiece(d, st, func(k, _ int, _ layout.Run) { cnt[k]++; total++ })
		iters := make([]Iter, ntimes)
		pieces := make([]Piece, total)
		pos := 0
		for k, n := range cnt {
			if n > 0 {
				iters[k].Pieces = pieces[pos : pos : pos+n]
				pos += n
			}
		}
		pl.eachPiece(d, st, func(k, o int, r layout.Run) {
			it := &iters[k]
			if it.Empty() {
				it.ReadLo, it.ReadHi = r.Offset, r.End()
			} else {
				it.ReadLo, it.ReadHi = min(it.ReadLo, r.Offset), max(it.ReadHi, r.End())
			}
			it.Pieces = append(it.Pieces, Piece{Owner: o, Run: r})
		})
		pl.Iters[a] = iters
		pl.MaxIters = max(pl.MaxIters, ntimes)
	}
	// Expected-message index, in the (iteration, aggregator) order the
	// receivers walk it.
	cnt = zeroed(cnt, len(pl.expect))
	total := 0
	pl.eachMessage(func(o, _, _ int) { cnt[o]++; total++ })
	entries := make([]expectEntry, total)
	pos := 0
	for o, n := range cnt {
		if n > 0 {
			pl.expect[o] = entries[pos : pos : pos+n]
			pos += n
		}
	}
	pl.eachMessage(func(o, k, a int) {
		pl.expect[o] = append(pl.expect[o], expectEntry{It: k, Aggr: a})
	})
}

// DefaultAggregators returns one aggregator comm rank per group of
// ranksPerNode consecutive ranks (ROMIO's one-aggregator-per-node default),
// for a communicator of size n.
func DefaultAggregators(n, ranksPerNode int) []int {
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	var out []int
	for r := 0; r < n; r += ranksPerNode {
		out = append(out, r)
	}
	return out
}

// SpreadAggregators returns k aggregator comm ranks spread evenly across a
// communicator of size n (k is clamped to [1, n]).
func SpreadAggregators(n, k int) []int {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i * n / k
	}
	return out
}
