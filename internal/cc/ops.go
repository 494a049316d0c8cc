// Package cc implements the paper's contribution: collective computing, a
// mapreduce-like paradigm fused into two-phase collective I/O. The user
// packages an access region, an I/O mode, and a computation (an Op) into an
// object I/O (paper Figure 6); the runtime (Figure 7) splits the two phases,
// runs the map on the logical subsets reconstructed inside each aggregator's
// collective-buffer iteration (Figure 8), and shuffles only partial results,
// finishing with an all-to-one or all-to-all reduce (§III-C).
package cc

import (
	"fmt"
	"math"

	"repro/internal/layout"
	"repro/internal/ncfile"
)

// State is an operator's partial result. States must be treated as immutable
// once returned from Absorb/Merge: the runtime may send them to other ranks.
type State interface{}

// Subset is a logical rectangle of the variable together with its values in
// row-major order — what the map phase operates on after the logical
// construction of paper Figure 8.
//
// A Subset is lent to Absorb: Slab and Data are valid only during the call.
// The runtime builds them in its host worker's scratch (Slab in the worker's
// slab list, Data in its value buffer) and overwrites both for the next
// subset, so an operator copies whatever it keeps, as coordsAt,
// IntersectSubset and PerIndex do.
type Subset struct {
	Slab layout.Slab
	Data []float64
}

// Op is the user computation of an object I/O: a commutative, associative
// aggregation expressed as map (Absorb) + reduce (Merge). It corresponds to
// the function registered with MPI_Op_create in paper Figure 6.
//
// The map folds each owner group of an aggregator iteration from its own
// Zero() on the host's cores (see runCollectiveComputing), so Zero and
// Absorb may run concurrently on distinct states and must not share mutable
// state across calls; every operator here, Fuse, WindowOp and PerIndex
// included, complies. The traditional leg folds a rank's subset from one
// state with the map's fold and cut: its element runs in chunks, each cut
// into the map's subsets, one Absorb at a time, on a host goroutine that
// runs beside the simulation from the end of the rank's read until its
// reduce (ncfile.FoldVara). That it gives the one-call answer rests on the
// left-fold rule: absorbing consecutive row-major sub-rectangles of a
// rectangle in order, from one state, gives the same bits as absorbing the
// whole rectangle. Merge, StateBytes and Value run on the rank's goroutine.
//
// Sum, Mean, Min, Max, MinLoc and MaxLoc are also folded without Absorb
// where the variable scans (ncfile.Dataset.CanScan: a Float32 variable whose
// generator is an ncfile.Scanner, or whose bytes are stored and read in
// place): their states map to and from a scan's accumulator, and the scan
// applies each one's rule to the values in Absorb's order, so the state is
// Absorb's to the bit. Only these six types take that path; any other Op,
// one that embeds them included, is folded by its Absorb.
type Op interface {
	// Name identifies the operator in reports.
	Name() string
	// Zero returns the identity partial result.
	Zero() State
	// Absorb folds a logical subset's values into a partial result. sub's
	// Slab and Data are valid only during the call (see Subset): the result
	// must not alias them.
	Absorb(s State, sub Subset) State
	// Merge combines two partial results.
	Merge(a, b State) State
	// StateBytes is the logical message size of one partial result.
	StateBytes() int64
	// Value extracts the scalar summary of a final state.
	Value(s State) float64
}

// Sum sums all elements.
type Sum struct{}

func (Sum) Name() string      { return "sum" }
func (Sum) Zero() State       { return float64(0) }
func (Sum) StateBytes() int64 { return 8 }
func (Sum) Absorb(s State, sub Subset) State {
	acc := s.(float64)
	for _, v := range sub.Data {
		acc += v
	}
	return acc
}
func (Sum) Merge(a, b State) State { return a.(float64) + b.(float64) }
func (Sum) Value(s State) float64  { return s.(float64) }

// Count counts elements.
type Count struct{}

func (Count) Name() string      { return "count" }
func (Count) Zero() State       { return int64(0) }
func (Count) StateBytes() int64 { return 8 }
func (Count) Absorb(s State, sub Subset) State {
	return s.(int64) + int64(len(sub.Data))
}
func (Count) Merge(a, b State) State { return a.(int64) + b.(int64) }
func (Count) Value(s State) float64  { return float64(s.(int64)) }

// Min finds the minimum element.
type Min struct{}

func (Min) Name() string      { return "min" }
func (Min) Zero() State       { return math.Inf(1) }
func (Min) StateBytes() int64 { return 8 }
func (Min) Absorb(s State, sub Subset) State {
	acc := s.(float64)
	for _, v := range sub.Data {
		if v < acc {
			acc = v
		}
	}
	return acc
}
func (Min) Merge(a, b State) State { return math.Min(a.(float64), b.(float64)) }
func (Min) Value(s State) float64  { return s.(float64) }

// Max finds the maximum element.
type Max struct{}

func (Max) Name() string      { return "max" }
func (Max) Zero() State       { return math.Inf(-1) }
func (Max) StateBytes() int64 { return 8 }
func (Max) Absorb(s State, sub Subset) State {
	acc := s.(float64)
	for _, v := range sub.Data {
		if v > acc {
			acc = v
		}
	}
	return acc
}
func (Max) Merge(a, b State) State { return math.Max(a.(float64), b.(float64)) }
func (Max) Value(s State) float64  { return s.(float64) }

// MeanState carries the running sum and count of Mean.
type MeanState struct {
	Sum float64
	N   int64
}

// Mean averages all elements.
type Mean struct{}

func (Mean) Name() string      { return "mean" }
func (Mean) Zero() State       { return MeanState{} }
func (Mean) StateBytes() int64 { return 16 }
func (Mean) Absorb(s State, sub Subset) State {
	st := s.(MeanState)
	for _, v := range sub.Data {
		st.Sum += v
	}
	st.N += int64(len(sub.Data))
	return st
}
func (Mean) Merge(a, b State) State {
	x, y := a.(MeanState), b.(MeanState)
	return MeanState{Sum: x.Sum + y.Sum, N: x.N + y.N}
}
func (Mean) Value(s State) float64 {
	st := s.(MeanState)
	if st.N == 0 {
		return math.NaN()
	}
	return st.Sum / float64(st.N)
}

// Loc is an extremum with the logical coordinates where it occurs — the
// payoff of the logical map: byte-level I/O, coordinate-level answers.
type Loc struct {
	Val    float64
	Coords []int64
	Valid  bool
}

// MinLoc finds the minimum element and its coordinates (e.g. the paper's
// "Min Sea-Level Pressure" WRF task needs where the hurricane eye is).
type MinLoc struct{}

func (MinLoc) Name() string      { return "minloc" }
func (MinLoc) Zero() State       { return Loc{Val: math.Inf(1)} }
func (MinLoc) StateBytes() int64 { return 8 + 8*4 } // value + coords(≤4 dims)
func (MinLoc) Absorb(s State, sub Subset) State {
	best := s.(Loc)
	// Flat scan in row-major order, strict compare (first occurrence wins);
	// coordinates are rebuilt once at the end, not tracked per element.
	bestIdx := -1
	for i, v := range sub.Data {
		if v < best.Val || !best.Valid {
			best.Val, best.Valid, bestIdx = v, true, i
		}
	}
	if bestIdx >= 0 {
		best.Coords = coordsAt(sub.Slab, int64(bestIdx))
	}
	return best
}
func (MinLoc) Merge(a, b State) State {
	x, y := a.(Loc), b.(Loc)
	if !y.Valid || (x.Valid && x.Val <= y.Val) {
		return x
	}
	return y
}
func (MinLoc) Value(s State) float64 { return s.(Loc).Val }

// MaxLoc finds the maximum element and its coordinates (e.g. "Max 10 m wind
// speed").
type MaxLoc struct{}

func (MaxLoc) Name() string      { return "maxloc" }
func (MaxLoc) Zero() State       { return Loc{Val: math.Inf(-1)} }
func (MaxLoc) StateBytes() int64 { return 8 + 8*4 }
func (MaxLoc) Absorb(s State, sub Subset) State {
	best := s.(Loc)
	bestIdx := -1
	for i, v := range sub.Data {
		if v > best.Val || !best.Valid {
			best.Val, best.Valid, bestIdx = v, true, i
		}
	}
	if bestIdx >= 0 {
		best.Coords = coordsAt(sub.Slab, int64(bestIdx))
	}
	return best
}

// coordsAt returns the logical coordinates of the idx-th element of the slab
// in row-major order.
func coordsAt(slab layout.Slab, idx int64) []int64 {
	nd := len(slab.Start)
	coords := make([]int64, nd)
	for d := nd - 1; d >= 0; d-- {
		coords[d] = slab.Start[d] + idx%slab.Count[d]
		idx /= slab.Count[d]
	}
	return coords
}
func (MaxLoc) Merge(a, b State) State {
	x, y := a.(Loc), b.(Loc)
	if !y.Valid || (x.Valid && x.Val >= y.Val) {
		return x
	}
	return y
}
func (MaxLoc) Value(s State) float64 { return s.(Loc).Val }

// scanOp maps a state of an operator a scan (ncfile.Dataset.Scan) can fold
// for to the scan's accumulator (toAcc) and back: fromAcc returns the state s
// becomes with a, the accumulator toAcc(s) made, after a scan of n elements
// of a variable of dims.
type scanOp interface {
	toAcc(s State) ncfile.Acc
	fromAcc(s State, a ncfile.Acc, n int64, dims []int64) State
}

// scanOf returns op's scanOp when op is one of the operators a scan can fold
// for, and nil otherwise. It asks for the exact types: a type that embeds one
// of them has its methods promoted but may have an Absorb of its own.
func scanOf(op Op) scanOp {
	switch op.(type) {
	case Sum, Mean, Min, Max, MinLoc, MaxLoc:
		return op.(scanOp)
	}
	return nil
}

func (Sum) toAcc(s State) ncfile.Acc { return ncfile.Acc{Kind: ncfile.AccSum, Val: s.(float64)} }
func (Sum) fromAcc(_ State, a ncfile.Acc, _ int64, _ []int64) State {
	return a.Val
}

func (Mean) toAcc(s State) ncfile.Acc {
	return ncfile.Acc{Kind: ncfile.AccSum, Val: s.(MeanState).Sum}
}
func (Mean) fromAcc(s State, a ncfile.Acc, n int64, _ []int64) State {
	return MeanState{Sum: a.Val, N: s.(MeanState).N + n}
}

// Min's v < acc is the scan's rule with a value always held.
func (Min) toAcc(s State) ncfile.Acc {
	return ncfile.Acc{Kind: ncfile.AccMin, Val: s.(float64), Valid: true}
}
func (Min) fromAcc(_ State, a ncfile.Acc, _ int64, _ []int64) State { return a.Val }

func (Max) toAcc(s State) ncfile.Acc {
	return ncfile.Acc{Kind: ncfile.AccMax, Val: s.(float64), Valid: true}
}
func (Max) fromAcc(_ State, a ncfile.Acc, _ int64, _ []int64) State { return a.Val }

func (MinLoc) toAcc(s State) ncfile.Acc { return locAcc(ncfile.AccMin, s.(Loc)) }
func (MinLoc) fromAcc(s State, a ncfile.Acc, _ int64, dims []int64) State {
	return accLoc(s.(Loc), a, dims)
}

func (MaxLoc) toAcc(s State) ncfile.Acc { return locAcc(ncfile.AccMax, s.(Loc)) }
func (MaxLoc) fromAcc(s State, a ncfile.Acc, _ int64, dims []int64) State {
	return accLoc(s.(Loc), a, dims)
}

// locAcc is the accumulator of a Loc: Idx -1 marks that the scan has not
// moved the best.
func locAcc(kind ncfile.AccKind, l Loc) ncfile.Acc {
	return ncfile.Acc{Kind: kind, Val: l.Val, Valid: l.Valid, Idx: -1}
}

// accLoc is l after a scan that left a: unchanged if the scan never moved
// the best, and otherwise the best with the coordinates of its element,
// computed once from its linear index.
func accLoc(l Loc, a ncfile.Acc, dims []int64) Loc {
	if a.Idx < 0 {
		return l
	}
	return Loc{Val: a.Val, Valid: true, Coords: layout.OffsetToCoords(dims, a.Idx, make([]int64, len(dims)))}
}

// Histogram counts elements into Bins equal-width buckets over [Lo, Hi);
// out-of-range values clamp into the end buckets. Value returns the index of
// the fullest bucket.
type Histogram struct {
	Lo, Hi float64
	Bins   int
}

func (h Histogram) Name() string      { return fmt.Sprintf("hist%d", h.Bins) }
func (h Histogram) Zero() State       { return make([]int64, h.Bins) }
func (h Histogram) StateBytes() int64 { return int64(h.Bins) * 8 }
func (h Histogram) Absorb(s State, sub Subset) State {
	counts := append([]int64(nil), s.([]int64)...)
	w := (h.Hi - h.Lo) / float64(h.Bins)
	for _, v := range sub.Data {
		counts[h.bin((v-h.Lo)/w)]++
	}
	return counts
}

// bin is the bucket of a value x bucket widths past Lo. It clamps before it
// converts, since a float outside int's range converts to whatever the
// platform gives (amd64 gives the least int, which would put +Inf in the
// first bucket). x ≥ Bins takes the last bucket, x ≤ 0 the first, and so
// does NaN.
func (h Histogram) bin(x float64) int {
	switch {
	case x >= float64(h.Bins):
		return h.Bins - 1
	case x > 0:
		return int(x)
	}
	return 0
}
func (h Histogram) Merge(a, b State) State {
	x, y := a.([]int64), b.([]int64)
	out := make([]int64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}
func (h Histogram) Value(s State) float64 {
	counts := s.([]int64)
	best, bestN := 0, int64(-1)
	for i, n := range counts {
		if n > bestN {
			best, bestN = i, n
		}
	}
	return float64(best)
}

// OpByName returns a built-in operator by name ("sum", "count", "min",
// "max", "mean", "minloc", "maxloc"), for CLI tools.
func OpByName(name string) (Op, error) {
	switch name {
	case "sum":
		return Sum{}, nil
	case "count":
		return Count{}, nil
	case "min":
		return Min{}, nil
	case "max":
		return Max{}, nil
	case "mean":
		return Mean{}, nil
	case "minloc":
		return MinLoc{}, nil
	case "maxloc":
		return MaxLoc{}, nil
	case "variance":
		return Variance{}, nil
	}
	return nil, fmt.Errorf("cc: unknown op %q", name)
}

// VarianceState is the mergeable moment state of Variance (count, mean,
// M2), combined with the parallel update of Chan et al.
type VarianceState struct {
	N    int64
	Mean float64
	M2   float64
}

// Variance computes the population variance of all elements with a
// numerically stable, mergeable moments state — a heavier analysis kernel
// than the paper's sum/min/max examples, same runtime contract.
type Variance struct{}

func (Variance) Name() string      { return "variance" }
func (Variance) Zero() State       { return VarianceState{} }
func (Variance) StateBytes() int64 { return 24 }
func (Variance) Absorb(s State, sub Subset) State {
	st := s.(VarianceState)
	for _, v := range sub.Data {
		st.N++
		d := v - st.Mean
		st.Mean += d / float64(st.N)
		st.M2 += d * (v - st.Mean)
	}
	return st
}
func (Variance) Merge(a, b State) State {
	x, y := a.(VarianceState), b.(VarianceState)
	if x.N == 0 {
		return y
	}
	if y.N == 0 {
		return x
	}
	n := x.N + y.N
	d := y.Mean - x.Mean
	return VarianceState{
		N:    n,
		Mean: x.Mean + d*float64(y.N)/float64(n),
		M2:   x.M2 + y.M2 + d*d*float64(x.N)*float64(y.N)/float64(n),
	}
}
func (Variance) Value(s State) float64 {
	st := s.(VarianceState)
	if st.N == 0 {
		return math.NaN()
	}
	return st.M2 / float64(st.N)
}
