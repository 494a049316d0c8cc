package cc

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
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
