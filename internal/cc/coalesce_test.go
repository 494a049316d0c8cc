package cc

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/adio"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
)

// tagOp is a diagnostic operator whose state records, in fold order, the comm
// rank of the aggregator that absorbed each piece group. It makes the
// owner-side merge order of the all-to-all shuffle observable: the sequence a
// rank sees in LocalState is exactly the order partials were folded in.
type tagOp struct{ me int }

type tagState []int

func (o tagOp) Name() string      { return "tag" }
func (o tagOp) Zero() State       { return tagState(nil) }
func (o tagOp) StateBytes() int64 { return 8 }

func (o tagOp) Absorb(s State, sub Subset) State {
	ts := s.(tagState)
	out := make(tagState, len(ts)+1)
	copy(out, ts)
	out[len(ts)] = o.me
	return out
}

func (o tagOp) Merge(a, b State) State {
	x, y := a.(tagState), b.(tagState)
	out := make(tagState, 0, len(x)+len(y))
	out = append(out, x...)
	return append(out, y...)
}

func (o tagOp) Value(s State) float64 { return float64(len(s.(tagState))) }

// TestAllToAllSenderOrderDeterministic is the regression test for the
// all-to-all merge order: each rank must fold the shuffled partials in
// ascending sender (aggregator) rank, not in delivery order. Before the fix,
// an aggregator-owner folded its own locally produced partials first — even
// when lower-ranked aggregators were also sending to it — so the fold order
// depended on delivery interleaving rather than being a canonical function of
// the plan, and float64 results could not be compared bit-for-bit against a
// reordered execution.
func TestAllToAllSenderOrderDeterministic(t *testing.T) {
	dims := []int64{8, 6, 10}
	whole := layout.Slab{Start: []int64{1, 0, 2}, Count: []int64{6, 6, 7}}
	const n = 4
	slabs := splitSlab(whole, n)
	tb := newTestbed(t, n, ncfile.Float64, dims)

	seqs := make([]tagState, n)
	errs := make([]error, n)
	tb.w.Go(func(r *mpi.Rank) {
		me := r.Rank()
		cl := tb.fs.Client(r.Proc(), r.Rank(), nil)
		io := IO{
			DS: tb.ds, VarID: tb.id, Slab: slabs[me],
			Reduce:      AllToAll,
			Aggregators: []int{0, 1, 2, 3},
			Params:      adio.Params{CB: 512},
			LocalState:  func(st State) { seqs[me] = st.(tagState) },
		}
		_, errs[me] = ObjectGetVara(r, tb.c, cl, io, tagOp{me: me})
	})
	if err := tb.env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}

	multi := false
	for rank, seq := range seqs {
		if len(seq) == 0 {
			continue
		}
		if !sort.IntsAreSorted([]int(seq)) {
			t.Fatalf("rank %d folded partials out of sender order: %v", rank, seq)
		}
		if seq[0] != seq[len(seq)-1] {
			multi = true
		}
	}
	if !multi {
		t.Fatal("no rank received partials from more than one sender; test is vacuous")
	}
}

// pieceTag is one absorbed piece group: the owner whose slab it belongs to
// and the comm rank of the aggregator that absorbed it.
type pieceTag struct{ owner, aggr int }

// ownerTagOp is tagOp that also records each piece's owner: the rank whose
// slab, among those split at the dimension-0 starts in bounds, holds it.
type ownerTagOp struct {
	me     int
	bounds [5]int64 // owner i's slab covers [bounds[i], bounds[i+1]) of dim 0
}

type ownerTagState []pieceTag

func (o ownerTagOp) Name() string      { return "owner-tag" }
func (o ownerTagOp) Zero() State       { return ownerTagState(nil) }
func (o ownerTagOp) StateBytes() int64 { return 8 }

func (o ownerTagOp) Absorb(s State, sub Subset) State {
	owner := 0
	for owner+1 < len(o.bounds)-1 && sub.Slab.Start[0] >= o.bounds[owner+1] {
		owner++
	}
	return append(append(ownerTagState(nil), s.(ownerTagState)...), pieceTag{owner, o.me})
}

func (o ownerTagOp) Merge(a, b State) State {
	return append(append(ownerTagState(nil), a.(ownerTagState)...), b.(ownerTagState)...)
}

func (o ownerTagOp) Value(s State) float64 { return float64(len(s.(ownerTagState))) }

// TestAllToOneRootMergeOrder pins the order in which the all-to-one root
// merges: each owner's partials are constructed from the root's own first,
// then the other aggregators' in aggregator order, and the final reduce
// folds the owners' results in ascending owner rank. The root's final state
// lists every piece by (owner, aggregator) in merge order, so reversing
// either loop of allToOneFinish reorders it.
func TestAllToOneRootMergeOrder(t *testing.T) {
	dims := []int64{8, 6, 10}
	whole := layout.Slab{Start: []int64{1, 0, 2}, Count: []int64{6, 6, 7}}
	const n, root = 4, 1
	aggrs := []int{0, 1, 2, 3}
	slabs := splitSlab(whole, n)
	var bounds [n + 1]int64
	for i, s := range slabs {
		if s.Count[0] == whole.Count[0] {
			t.Fatal("the slabs are not split along dimension 0")
		}
		bounds[i], bounds[i+1] = s.Start[0], s.Start[0]+s.Count[0]
	}
	tb := newTestbed(t, n, ncfile.Float64, dims)

	var final ownerTagState
	errs := make([]error, n)
	tb.w.Go(func(r *mpi.Rank) {
		me := r.Rank()
		cl := tb.fs.Client(r.Proc(), r.Rank(), nil)
		io := IO{
			DS: tb.ds, VarID: tb.id, Slab: slabs[me],
			Reduce: AllToOne, Root: root, Aggregators: aggrs,
			Params: adio.Params{CB: 512},
		}
		res, err := ObjectGetVara(r, tb.c, cl, io, ownerTagOp{me: me, bounds: bounds})
		errs[me] = err
		if res.Root {
			final = res.State.(ownerTagState)
		}
	})
	if err := tb.env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}

	// The root's own partials come first, then aggregator order.
	pos := func(aggr int) int {
		if aggr == root {
			return -1
		}
		return slices.Index(aggrs, aggr)
	}
	senders := map[int]map[int]bool{} // owner -> non-root aggregators
	for i, p := range final {
		if senders[p.owner] == nil {
			senders[p.owner] = map[int]bool{}
		}
		if p.aggr != root {
			senders[p.owner][p.aggr] = true
		}
		if i == 0 {
			continue
		}
		q := final[i-1]
		if p.owner < q.owner || p.owner == q.owner && pos(p.aggr) < pos(q.aggr) {
			t.Fatalf("root merged %+v after %+v: want owners ascending, each from the root's partial, then aggregator order; full order %v",
				p, q, final)
		}
	}
	multi := false
	for _, s := range senders {
		multi = multi || len(s) >= 2
	}
	if len(senders) < 2 || !multi {
		t.Fatalf("merge order %v: the test needs two owners and an owner fed by two non-root aggregators", final)
	}
}

// TestConsumersBitIdenticalToColdRuns is the coalescing property test at the
// runtime level: a donor pass with fused consumers must leave the donor's
// result untouched and produce, for each eligible consumer, exactly the bits
// its own cold run produces — for an exact-shape order-sensitive operator
// (MinLoc) and for contained-window order-invariant operators (Histogram,
// Min).
func TestConsumersBitIdenticalToColdRuns(t *testing.T) {
	dims := []int64{8, 6, 10}
	whole := layout.Slab{Start: []int64{1, 0, 2}, Count: []int64{6, 6, 7}}
	window := layout.Slab{Start: []int64{2, 1, 3}, Count: []int64{3, 4, 4}}
	const n = 4
	wholeSlabs := splitSlab(whole, n)
	winSlabs := splitSlab(window, n)
	params := adio.Params{CB: 512, Pipeline: true}

	cold := func(slabs []layout.Slab, op Op) Result {
		tb := newTestbed(t, n, ncfile.Float64, dims)
		res := runObjectGetVara(t, tb, slabs,
			IO{Reduce: AllToOne, Params: params}, op)
		return res[0]
	}
	donorCold := cold(wholeSlabs, Sum{})
	exactCold := cold(wholeSlabs, MinLoc{})
	histCold := cold(winSlabs, Histogram{Lo: 0, Hi: 125, Bins: 10})
	minCold := cold(winSlabs, Min{})

	var exactRes, histRes, minRes Result
	cons := []Consumer{
		{Op: MinLoc{}, OnResult: func(r Result) { exactRes = r }},
		{Op: WindowOp{Op: Histogram{Lo: 0, Hi: 125, Bins: 10}, Window: window},
			OnResult: func(r Result) { histRes = r }},
		{Op: WindowOp{Op: Min{}, Window: window},
			OnResult: func(r Result) { minRes = r }},
	}
	tb := newTestbed(t, n, ncfile.Float64, dims)
	warm := runObjectGetVara(t, tb, wholeSlabs,
		IO{Reduce: AllToOne, Params: params, Consumers: cons}, Sum{})

	check := func(label string, got, want Result) {
		t.Helper()
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("%s: fused value %x != cold value %x", label,
				math.Float64bits(got.Value), math.Float64bits(want.Value))
		}
		if !reflect.DeepEqual(got.State, want.State) {
			t.Fatalf("%s: fused state %+v != cold state %+v", label, got.State, want.State)
		}
	}
	check("donor sum", warm[0], donorCold)
	check("exact minloc", exactRes, exactCold)
	check("windowed histogram", histRes, histCold)
	check("windowed min", minRes, minCold)
}

// countingOp is Count with a tally of its Absorb calls. It holds a pointer,
// so it is comparable: copies that share a tally share an OpKey, and the
// tally counts the fused components that fold it.
type countingOp struct {
	Count
	calls *atomic.Int64
}

func (o countingOp) Absorb(s State, sub Subset) State {
	o.calls.Add(1)
	return o.Count.Absorb(s, sub)
}

// chargeOp is Sum whose partial result is a message of bytes: the modelled
// pass of a fused operator whose components' messages sum to bytes.
type chargeOp struct {
	Sum
	bytes int64
}

func (o chargeOp) StateBytes() int64 { return o.bytes }

// TestDuplicateConsumersShareOneComponent: consumers whose operators have
// equal OpKeys fold one component between them, and the pass is still
// charged per consumer. Every follower of a Sum donor — three Variances, two
// Histograms, a MinLoc and two windowed Maxes built from distinct window
// slices — gets the bits of its cold run; a counting operator is absorbed as
// often under k identical consumers as under one, alone or as the primary's
// twin; and the pass's Stats and makespan are those of a single operator
// whose map cost is the sum of every consumer's and whose message is the sum
// of their StateBytes.
func TestDuplicateConsumersShareOneComponent(t *testing.T) {
	dims := []int64{16, 6, 10}
	whole := layout.Slab{Start: []int64{1, 0, 2}, Count: []int64{12, 6, 7}}
	window := layout.Slab{Start: []int64{2, 1, 3}, Count: []int64{8, 4, 4}}
	const n = 8
	wholeSlabs, winSlabs := splitSlab(whole, n), splitSlab(window, n)
	io := IO{Reduce: AllToOne, Params: adio.Params{CB: 512, Pipeline: true}, SecPerElem: 0x1p-30}
	hist := Histogram{Lo: -40, Hi: 50, Bins: 32}
	run := func(slabs []layout.Slab, io IO, op Op) (Result, float64) {
		tb := newTestbed(t, n, ncfile.Float64, dims)
		res := runObjectGetVara(t, tb, slabs, io, op)
		return res[0], tb.env.Now()
	}

	followers := []struct {
		op   Op
		cold Op
		win  bool
	}{
		{Variance{}, Variance{}, false},
		{hist, hist, false},
		{Variance{}, Variance{}, false},
		{MinLoc{}, MinLoc{}, false},
		{WindowOp{Op: Max{}, Window: window.Clone()}, Max{}, true},
		{Histogram{Lo: -40, Hi: 50, Bins: 32}, hist, false},
		{Variance{}, Variance{}, false},
		{WindowOp{Op: Max{}, Window: window.Clone()}, Max{}, true},
	}
	fused := make([]Result, len(followers))
	cons := make([]Consumer, len(followers))
	secPerElem, stateBytes := io.SecPerElem, Sum{}.StateBytes()
	for i, f := range followers {
		cons[i] = Consumer{Op: f.op, SecPerElem: float64(i+1) * 0x1p-30,
			OnResult: func(r Result) { fused[i] = r }}
		secPerElem += cons[i].SecPerElem
		stateBytes += f.op.StateBytes()
	}
	fio := io
	fio.Consumers = cons
	fio.Stats = &Stats{}
	donor, makespan := run(wholeSlabs, fio, Sum{})

	check := func(label string, got, want Result) {
		t.Helper()
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
			!reflect.DeepEqual(got.State, want.State) {
			t.Errorf("%s: fused %v/%+v, cold %v/%+v", label, got.Value, got.State, want.Value, want.State)
		}
	}
	donorCold, _ := run(wholeSlabs, io, Sum{})
	check("donor sum", donor, donorCold)
	for i, f := range followers {
		slabs := wholeSlabs
		if f.win {
			slabs = winSlabs
		}
		cold, _ := run(slabs, io, f.cold)
		check(fmt.Sprintf("follower %d (%T)", i, f.op), fused[i], cold)
	}

	// The modelled pass: one operator carrying every consumer's charge.
	oio := io
	oio.SecPerElem = secPerElem
	oio.Stats = &Stats{}
	_, oracleSpan := run(wholeSlabs, oio, chargeOp{bytes: stateBytes})
	if *fio.Stats != *oio.Stats {
		t.Errorf("fused pass stats %+v,\n  per-consumer charge %+v", *fio.Stats, *oio.Stats)
	}
	if makespan != oracleSpan {
		t.Errorf("fused pass makespan %v, per-consumer charge %v", makespan, oracleSpan)
	}

	calls := func(primary func(countingOp) Op, k int) int64 {
		var tally atomic.Int64
		op := countingOp{calls: &tally}
		cio := io
		for i := 0; i < k; i++ {
			cio.Consumers = append(cio.Consumers, Consumer{Op: op})
		}
		run(wholeSlabs, cio, primary(op))
		return tally.Load()
	}
	sum := func(countingOp) Op { return Sum{} }
	self := func(op countingOp) Op { return op }
	one := calls(sum, 1)
	if one == 0 {
		t.Fatal("the counting consumer was never absorbed")
	}
	for _, k := range []int{2, 5} {
		if c := calls(sum, k); c != one {
			t.Errorf("%d identical consumers absorbed %d times, one consumer %d", k, c, one)
		}
	}
	for _, k := range []int{0, 1, 5} {
		if c := calls(self, k); c != one {
			t.Errorf("the primary and %d identical consumers absorbed %d times, one consumer %d", k, c, one)
		}
	}
}

// coalescedPass is an object I/O over the allocation bed whose Sum donor
// carries k identical Variance followers.
func coalescedPass(k int) IO {
	io := IO{Reduce: AllToOne, Params: adio.Params{CB: allocBedCB, Pipeline: true}}
	for i := 0; i < k; i++ {
		io.Consumers = append(io.Consumers, Consumer{Op: Variance{}, OnResult: func(Result) {}})
	}
	return io
}

// TestCoalescedPassAllocBound: a pass carrying 64 identical followers
// allocates within a small constant of a pass carrying one. The followers
// share one fused component, so nothing the map, the shuffle or the reduce
// allocates grows with them; each rank's table of consumer components does,
// 8 bytes a follower. A component per follower would add a boxed state per
// follower per subset folded.
func TestCoalescedPassAllocBound(t *testing.T) {
	b := newAllocBed(t, false, allocBedDims)
	oneBytes, oneMallocs := b.steadyAlloc(t, coalescedPass(1))
	bytes, mallocs := b.steadyAlloc(t, coalescedPass(64))
	t.Logf("one follower: %d B, %d objects; 64 followers: %d B, %d objects", oneBytes, oneMallocs, bytes, mallocs)
	tables := uint64(len(b.slabs) * 8 * 64)
	if bound := oneBytes + tables + 32<<10; overBound(bytes, bound) {
		t.Errorf("64 identical followers allocated %d B, bound %d B (one follower %d + component tables %d + 32 KiB)",
			bytes, bound, oneBytes, tables)
	}
	if bound := oneMallocs + mallocSlack; mallocs > bound {
		t.Errorf("64 identical followers allocated %d objects, bound %d (one follower %d + slack %d)",
			mallocs, bound, oneMallocs, mallocSlack)
	}
}

// BenchmarkCoalescedPassDuplicates measures one pass of a Sum donor over
// the allocation bed carrying 1, 8 and 64 identical Variance followers.
func BenchmarkCoalescedPassDuplicates(b *testing.B) {
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("followers=%d", k), func(b *testing.B) {
			bed := newAllocBed(b, false, allocBedDims)
			io := coalescedPass(k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runObjectGetVara(b, bed.tb, bed.slabs, io, Sum{})
			}
		})
	}
}

// TestIntersectSubset checks the row-major gather of the window clip against
// a directly computed reference.
func TestIntersectSubset(t *testing.T) {
	sub := Subset{
		Slab: layout.Slab{Start: []int64{2, 3}, Count: []int64{4, 5}},
		Data: make([]float64, 20),
	}
	for i := range sub.Data {
		sub.Data[i] = float64(i)
	}
	win := layout.Slab{Start: []int64{3, 4}, Count: []int64{2, 2}}
	got, ok := IntersectSubset(sub, win)
	if !ok {
		t.Fatal("intersection reported empty")
	}
	want := []float64{6, 7, 11, 12} // rows 1-2, cols 1-2 of the 4x5 block
	if !reflect.DeepEqual(got.Data, want) {
		t.Fatalf("gathered %v, want %v", got.Data, want)
	}
	if got.Slab.Start[0] != 3 || got.Slab.Start[1] != 4 ||
		got.Slab.Count[0] != 2 || got.Slab.Count[1] != 2 {
		t.Fatalf("clipped slab %+v", got.Slab)
	}

	if _, ok := IntersectSubset(sub, layout.Slab{
		Start: []int64{0, 0}, Count: []int64{1, 1}}); ok {
		t.Fatal("disjoint window reported non-empty")
	}

	// A window covering the subset returns it untouched (fast path).
	full, ok := IntersectSubset(sub, layout.Slab{
		Start: []int64{0, 0}, Count: []int64{10, 10}})
	if !ok || !reflect.DeepEqual(full, sub) {
		t.Fatal("covering window must return the subset unchanged")
	}
}
