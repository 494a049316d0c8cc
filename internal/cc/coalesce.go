package cc

import (
	"fmt"
	"reflect"

	"repro/internal/layout"
)

// This file holds the primitives of cross-job read coalescing: a second
// analysis piggybacks on a job's physical pass by fusing its operator with
// the primary one (see IO.Consumers). Two eligibility regimes keep results
// bit-identical to a cold run of the piggybacked job:
//
//   - Exact shape: the consumer's full semantic shape (slab, split, rank
//     count, buffer size, reduce mode) equals the donor's, so every
//     Absorb/Merge of the fused component happens in exactly the order the
//     consumer's own run would have used — identical bits for any operator.
//   - Contained window: the consumer's slab is contained in the donor's and
//     its operator is order-invariant (OrderInvariant reports true), so the
//     fold order cannot change the result bits; the operator is restricted
//     to the sub-window with WindowOp.

// orderInvariantOp is implemented by operators whose result bits do not
// depend on the order partial results are absorbed and merged in: integer
// accumulators (Count, Histogram) and exact float64 min/max, but not float64
// sums (rounding reassociates) or tie-breaking extrema with locations.
type orderInvariantOp interface{ OrderInvariant() bool }

// OrderInvariant reports whether op declares its result bits independent of
// absorb/merge order. Operators opt in by implementing OrderInvariant() bool.
func OrderInvariant(op Op) bool {
	oi, ok := op.(orderInvariantOp)
	return ok && oi.OrderInvariant()
}

// OrderInvariant marks Count safe for any fold order (integer addition).
func (Count) OrderInvariant() bool { return true }

// OrderInvariant marks Min safe for any fold order (float64 min is exactly
// associative and commutative).
func (Min) OrderInvariant() bool { return true }

// OrderInvariant marks Max safe for any fold order.
func (Max) OrderInvariant() bool { return true }

// OrderInvariant marks Histogram safe for any fold order (integer bin
// counts).
func (Histogram) OrderInvariant() bool { return true }

// WindowOp restricts an inner operator to a sub-window of the access region:
// Absorb intersects each subset with Window before folding, so a consumer
// whose slab is contained in the donor's sees exactly its own elements. The
// elements arrive in donor order, so the inner operator must be
// order-invariant for the result to match the consumer's cold run bit for
// bit; use OrderInvariant to check before wrapping.
type WindowOp struct {
	Op     Op
	Window layout.Slab
}

// Name implements Op.
func (w WindowOp) Name() string { return "window(" + w.Op.Name() + ")" }

// Zero implements Op; states are the inner operator's states.
func (w WindowOp) Zero() State { return w.Op.Zero() }

// StateBytes implements Op.
func (w WindowOp) StateBytes() int64 { return w.Op.StateBytes() }

// Absorb implements Op, folding only the elements inside Window.
func (w WindowOp) Absorb(s State, sub Subset) State {
	isub, ok := IntersectSubset(sub, w.Window)
	if !ok {
		return s
	}
	return w.Op.Absorb(s, isub)
}

// Merge implements Op.
func (w WindowOp) Merge(a, b State) State { return w.Op.Merge(a, b) }

// Value implements Op.
func (w WindowOp) Value(s State) float64 { return w.Op.Value(s) }

// OrderInvariant delegates to the inner operator.
func (w WindowOp) OrderInvariant() bool { return OrderInvariant(w.Op) }

// IntersectSubset clips sub to window w, returning the overlapping rectangle
// with its values (row-major, copied out of sub.Data). ok is false when the
// intersection is empty. Both slabs must have the same rank as the variable.
func IntersectSubset(sub Subset, w layout.Slab) (Subset, bool) {
	nd := len(sub.Slab.Start)
	out := layout.Slab{Start: make([]int64, nd), Count: make([]int64, nd)}
	exact := true
	for d := 0; d < nd; d++ {
		lo, hi := sub.Slab.Start[d], sub.Slab.Start[d]+sub.Slab.Count[d]
		if s := w.Start[d]; s > lo {
			lo = s
		}
		if e := w.Start[d] + w.Count[d]; e < hi {
			hi = e
		}
		if hi <= lo {
			return Subset{}, false
		}
		out.Start[d], out.Count[d] = lo, hi-lo
		exact = exact && lo == sub.Slab.Start[d] && hi-lo == sub.Slab.Count[d]
	}
	if exact {
		return sub, true
	}
	// Gather the intersection row-major: iterate the outer dimensions of the
	// clipped rectangle, copying the contiguous innermost-dimension rows.
	rowLen := out.Count[nd-1]
	data := make([]float64, out.NumElems())
	// Strides of the source subset.
	strides := make([]int64, nd)
	strides[nd-1] = 1
	for d := nd - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * sub.Slab.Count[d+1]
	}
	idx := make([]int64, nd) // current coords relative to out.Start
	pos := int64(0)
	for {
		src := int64(0)
		for d := 0; d < nd; d++ {
			src += (out.Start[d] + idx[d] - sub.Slab.Start[d]) * strides[d]
		}
		copy(data[pos:pos+rowLen], sub.Data[src:src+rowLen])
		pos += rowLen
		d := nd - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < out.Count[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
	return Subset{Slab: out, Data: data}, true
}

// Consumer piggybacks a second analysis on the same physical pass (cross-job
// read coalescing, see IO.Consumers): its operator is fused with the primary
// operator, evaluated over the same reconstructed subsets, and its final
// result is delivered on the root through OnResult. The caller is
// responsible for eligibility — either the consumer's semantic shape matches
// the donor's exactly, or Op is an order-invariant operator (optionally
// wrapped in WindowOp for a contained sub-window).
type Consumer struct {
	// Op is the piggybacked operator (possibly a WindowOp).
	Op Op
	// SecPerElem adds this consumer's map cost per donor element, so the
	// shared pass is charged for the extra compute it performs.
	SecPerElem float64
	// OnResult receives the consumer's final result; called on the root rank
	// only, before ObjectGetVara returns.
	OnResult func(Result)
}

// OpKey is an operator's identity, the one rule for when two operators ask
// the same question: jobs whose operators have equal (==) keys share a cached
// result (the cluster's memo key holds this key), and consumers of one pass
// whose operators have equal keys share one fused component. The key is the
// operator value itself when reflect calls it comparable, so its type and
// parameters take part in == (where Name alone would conflate, e.g., two
// Histograms with different ranges); an operator that is not (Fuse, WindowOp,
// any op with a slice field) is keyed by its %T%+v text.
//
// Equal keys mean the same type with the same parameters, so the cold runs
// agree bit for bit and sharing is safe. Three cases follow from the rule:
// a ±0 parameter keys equal to its twin under == (every operator here gives
// the same answer for both) but not in the text; a pointer keys equal only to
// itself, under == as in the text, which prints a nested pointer as its
// address; and a NaN parameter of a comparable operator makes its key unequal
// to every key, its own included, so that operator shares neither a result
// nor a component — while the text of a NaN is "NaN", so a non-comparable
// operator holding one, such as Fuse{Ops: {Histogram{Lo: NaN, …}}}, keys
// equal to itself and its twin and does share.
func OpKey(op Op) any {
	if reflect.ValueOf(op).Comparable() {
		return op
	}
	return fmt.Sprintf("%T%+v", op, op)
}
