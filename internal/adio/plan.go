// Package adio reimplements the ROMIO layer the paper modifies: two-phase
// collective read/write over a striped parallel file, plus independent I/O
// with data sieving. The two-phase access plan — file-domain partitioning,
// aggregator assignment, per-iteration collective-buffer windows, and the
// (aggregator, iteration, owner) piece index — is exposed as a standalone
// Plan so that the collective-computing runtime (internal/cc) can drive the
// same protocol with a map inserted between the phases.
package adio

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/layout"
)

// Params tunes the I/O protocols. Zero values are defaulted.
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
	// PackRate is the memory bandwidth charged for packing/unpacking pieces
	// (bytes/second of Sys time).
	PackRate float64
	// PieceCost is the per-piece CPU cost of packing or placing one
	// non-contiguous fragment (index arithmetic plus a cache-missing small
	// memcpy). Fine-grained interleaved patterns are dominated by this, not
	// by bytes — it is what makes the paper's Figure 1 shuffle expensive.
	PieceCost float64
	// PlanCost is the CPU time charged per offset-list run for building the
	// access plan.
	PlanCost float64
	// Obs, when non-nil, receives per-iteration aggregator timings (used to
	// regenerate the paper's Figure 1 profile).
	Obs Observer
	// PlanCache, when non-nil, shares one physical Plan across the ranks of
	// a single collective call: every rank builds an identical plan anyway,
	// so the simulation constructs it once (virtual CPU time is still
	// charged per rank). Use a fresh cache per collective operation.
	PlanCache *PlanCache
	// ReadTimeout, when positive, installs a pfs.ReadPolicy on the client
	// for the duration of the collective read: OST requests whose predicted
	// completion exceeds the timeout are abandoned and reissued up to
	// ReadRetries times with ReadBackoff*attempt extra wait. The straggler
	// mitigation knob (see internal/fault).
	ReadTimeout float64
	ReadRetries int
	ReadBackoff float64
}

// Observer receives aggregator-side per-iteration phase timings.
type Observer interface {
	// ObserveIter reports one aggregator iteration: time exposed waiting for
	// the read, time spent in the shuffle (pack + send or transform), and
	// the bytes served.
	ObserveIter(aggrIdx, iter int, readSec, shuffleSec float64, bytes int64)
}

// PlanCache shares one Plan across ranks of a single collective call. For
// multi-round protocols (rebalanced reads), Keyed shares one plan per round
// and health epoch.
type PlanCache struct {
	pl    *Plan
	keyed map[RoundKey]*Plan
}

// RoundKey identifies one round plan in a shared PlanCache. Round alone is
// not a safe key across jobs: rebalanced plans embed health observations from
// build time, so a plan built during a straggler episode must not be served
// to a job running after recovery (or vice versa). Epoch carries the
// fault-health epoch the plan was built under (pfs.Health.Epoch, collectively
// agreed by the caller); on a healthy file system it stays 0 and same-shape
// jobs share round plans exactly as before.
type RoundKey struct {
	Round int
	Epoch int64
}

// Keyed returns the cached plan for key, building and caching it via build on
// first use. Every rank of a multi-round collective call must reach round
// key.Round with identical inputs (including an identical, collectively
// agreed key.Epoch); the first rank to arrive constructs the plan and the
// rest reuse the identical object, mirroring what real ROMIO achieves by
// construction (all ranks run the same deterministic planner).
func (c *PlanCache) Keyed(key RoundKey, build func() *Plan) *Plan {
	if c.keyed == nil {
		c.keyed = make(map[RoundKey]*Plan)
	}
	if pl, ok := c.keyed[key]; ok {
		return pl
	}
	pl := build()
	c.keyed[key] = pl
	return pl
}

// KeyedPlans returns a copy of the round-plan cache contents, for tests and
// diagnostics: which (round, epoch) plans this cache served.
func (c *PlanCache) KeyedPlans() map[RoundKey]*Plan {
	out := make(map[RoundKey]*Plan, len(c.keyed))
	for k, v := range c.keyed {
		out[k] = v
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
	if p.PackRate == 0 {
		p.PackRate = 4e9
	}
	if p.PlanCost == 0 {
		p.PlanCost = 50e-9
	}
	if p.PieceCost == 0 {
		p.PieceCost = 0.3e-6
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
	prefix [][]int64      // per owner, prefix sums of run lengths
	expect [][]expectEntry
	aggIdx map[int]int // comm rank -> aggregator index
}

// Domain is a half-open byte range of the file.
type Domain struct{ Lo, Hi int64 }

// TotalRuns returns the number of offset-list runs across all owners.
func (pl *Plan) TotalRuns() int {
	n := 0
	for _, rs := range pl.reqs {
		n += len(rs)
	}
	return n
}

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
	// prefix[o][i] = bytes of owner o's request before run i; the final
	// entry is the owner's total, so ReqBytes reads prefix[o][len(runs)].
	pl.prefix = make([][]int64, len(reqs))
	for o, rs := range reqs {
		pf := make([]int64, len(rs)+1)
		for i, r := range rs {
			pf[i+1] = pf[i] + r.Length
		}
		pl.prefix[o] = pf
	}

	// Global hull.
	first := true
	for _, rs := range reqs {
		if len(rs) == 0 {
			continue
		}
		l, h := layout.Bounds(rs)
		if first || l < lo {
			lo = l
		}
		if first || h > hi {
			hi = h
		}
		first = false
	}
	na := len(aggrs)
	pl.Iters = make([][]Iter, na)
	pl.Domains = make([]Domain, na)
	pl.expect = make([][]expectEntry, len(reqs))
	return pl, lo, hi, first
}

// BuildPlan computes the two-phase plan for the given per-owner byte-run
// requests (sorted, disjoint, coalesced — as layout.Flatten produces),
// aggregator comm ranks, collective buffer size, and domain alignment.
func BuildPlan(reqs [][]layout.Run, aggrs []int, cb, align int64) *Plan {
	pl, lo, hi, empty := newPlanShell(reqs, aggrs, cb)
	if empty { // no data requested at all
		return pl
	}
	// Even domain partition of the hull, optionally aligned.
	na := len(aggrs)
	span := hi - lo
	ds := (span + int64(na) - 1) / int64(na)
	if align > 0 && ds%align != 0 {
		ds += align - ds%align
	}
	if ds <= 0 {
		ds = 1
	}
	for a := 0; a < na; a++ {
		dlo := lo + int64(a)*ds
		dhi := dlo + ds
		if dlo > hi {
			dlo, dhi = hi, hi
		}
		if dhi > hi {
			dhi = hi
		}
		pl.Domains[a] = Domain{dlo, dhi}
	}
	pl.fillIters()
	return pl
}

// BuildPlanWeighted is BuildPlan with cost-proportional file domains: the
// hull is split into align-sized chunks (cb-sized when align is 0), each
// chunk priced by cost(lo, hi), and domain boundaries are placed at chunk
// boundaries so every aggregator carries ≈ 1/na of the total cost. With a
// cost that charges observed-slow OSTs more, this shifts file-domain bytes
// away from stragglers — the mitigation the paper's future-work section
// gestures at. A nil cost or an all-zero costing degrades to BuildPlan.
func BuildPlanWeighted(reqs [][]layout.Run, aggrs []int, cb, align int64, cost func(lo, hi int64) float64) *Plan {
	if cost == nil {
		return BuildPlan(reqs, aggrs, cb, align)
	}
	pl, lo, hi, empty := newPlanShell(reqs, aggrs, cb)
	if empty {
		return pl
	}
	step := align
	if step <= 0 {
		step = cb
	}
	nchunks := int((hi - lo + step - 1) / step)
	costs := make([]float64, nchunks)
	var total float64
	for i := range costs {
		clo := lo + int64(i)*step
		chi := clo + step
		if chi > hi {
			chi = hi
		}
		costs[i] = cost(clo, chi)
		if costs[i] < 0 {
			costs[i] = 0
		}
		total += costs[i]
	}
	if total <= 0 {
		return BuildPlan(reqs, aggrs, cb, align)
	}
	// Place na-1 monotone cuts at chunk boundaries, each minimizing the
	// distance between the cumulative cost and its even-share target. The
	// cut lands *before* a large chunk when that is closer — a greedy
	// always-include rule would hand a whole straggling stripe to one domain.
	na := len(aggrs)
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
		b := lo + int64(j)*step
		if b > hi {
			b = hi
		}
		bounds[a] = b
	}
	for a := 0; a < na; a++ {
		pl.Domains[a] = Domain{bounds[a], bounds[a+1]}
	}
	pl.fillIters()
	return pl
}

// fillIters populates Iters, MaxIters, and the expected-message index from
// pl.Domains — the domain-independent second half of plan construction.
func (pl *Plan) fillIters() {
	reqs, cb, na := pl.reqs, pl.CB, len(pl.Aggrs)
	type frag struct {
		it    int
		owner int
		run   layout.Run
	}
	for a := 0; a < na; a++ {
		d := pl.Domains[a]
		if d.Hi <= d.Lo {
			continue
		}
		// Bounds of requested bytes within the domain.
		var st, en int64
		var any bool
		perOwner := make([][]layout.Run, len(reqs))
		for o, rs := range reqs {
			w := layout.Window(rs, d.Lo, d.Hi)
			perOwner[o] = w
			if len(w) == 0 {
				continue
			}
			l, h := layout.Bounds(w)
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
		ntimes := int((en - st + cb - 1) / cb)
		iters := make([]Iter, ntimes)
		var frags []frag
		for o, w := range perOwner {
			for _, r := range w {
				// Split r at the cb grid anchored at st.
				off, end := r.Offset, r.End()
				for off < end {
					k := int((off - st) / cb)
					wHi := st + int64(k+1)*cb
					e := end
					if wHi < e {
						e = wHi
					}
					frags = append(frags, frag{it: k, owner: o, run: layout.Run{Offset: off, Length: e - off}})
					off = e
				}
			}
		}
		// (iter, owner, offset) is a total order — an owner's fragments are
		// disjoint — so an unstable sort has one answer.
		slices.SortFunc(frags, func(x, y frag) int {
			if c := cmp.Compare(x.it, y.it); c != 0 {
				return c
			}
			if c := cmp.Compare(x.owner, y.owner); c != 0 {
				return c
			}
			return cmp.Compare(x.run.Offset, y.run.Offset)
		})
		for _, f := range frags {
			it := &iters[f.it]
			if it.Empty() {
				it.ReadLo, it.ReadHi = f.run.Offset, f.run.End()
			} else {
				if f.run.Offset < it.ReadLo {
					it.ReadLo = f.run.Offset
				}
				if f.run.End() > it.ReadHi {
					it.ReadHi = f.run.End()
				}
			}
			it.Pieces = append(it.Pieces, Piece{Owner: f.owner, Run: f.run})
		}
		pl.Iters[a] = iters
		if ntimes > pl.MaxIters {
			pl.MaxIters = ntimes
		}
		// Expected-message index: one message per (owner, iter) with data.
		for k := range iters {
			prevOwner := -1
			for _, pc := range iters[k].Pieces {
				if pc.Owner != prevOwner {
					pl.expect[pc.Owner] = append(pl.expect[pc.Owner], expectEntry{It: k, Aggr: a})
					prevOwner = pc.Owner
				}
			}
		}
	}
	// expect entries must be sorted by iteration (then aggregator) for the
	// receivers' single pass; they were appended per aggregator, so re-sort.
	for o := range pl.expect {
		// One entry per (iteration, aggregator): a total order again.
		slices.SortFunc(pl.expect[o], func(x, y expectEntry) int {
			if c := cmp.Compare(x.It, y.It); c != 0 {
				return c
			}
			return cmp.Compare(x.Aggr, y.Aggr)
		})
	}
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
