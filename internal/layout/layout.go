// Package layout implements N-dimensional array geometry: flattening a
// hyperslab (start/count per dimension) into sorted, coalesced linear runs,
// and the inverse "logical construction" of the paper's Figure 8 — mapping a
// linear byte/element range held in an aggregator's buffer back to logical
// coordinate rectangles of the original dataset.
//
// Convention: row-major storage with dims[0] the slowest-varying dimension
// and dims[len(dims)-1] the fastest, as in netCDF/HDF5. All quantities are
// in elements; callers scale to bytes with element size.
package layout

import (
	"fmt"
	"sort"
)

// Run is a contiguous span of the flattened array: elements
// [Offset, Offset+Length).
type Run struct {
	Offset int64
	Length int64
}

// End returns Offset+Length.
func (r Run) End() int64 { return r.Offset + r.Length }

// Slab is a hyperslab selection: for each dimension d, indices
// [Start[d], Start[d]+Count[d]).
type Slab struct {
	Start []int64
	Count []int64
}

// NumElems returns the number of elements selected by the slab.
func (s Slab) NumElems() int64 {
	if len(s.Count) == 0 {
		return 0
	}
	n := int64(1)
	for _, c := range s.Count {
		n *= c
	}
	return n
}

// Clone returns a deep copy of the slab.
func (s Slab) Clone() Slab {
	return Slab{
		Start: append([]int64(nil), s.Start...),
		Count: append([]int64(nil), s.Count...),
	}
}

func (s Slab) String() string { return fmt.Sprintf("{start %v count %v}", s.Start, s.Count) }

// Validate checks that the slab lies within dims.
func Validate(dims []int64, s Slab) error {
	if len(s.Start) != len(dims) || len(s.Count) != len(dims) {
		return fmt.Errorf("layout: slab rank %d/%d does not match %d dims",
			len(s.Start), len(s.Count), len(dims))
	}
	for d, n := range dims {
		if n <= 0 {
			return fmt.Errorf("layout: dims[%d] = %d, must be positive", d, n)
		}
		if s.Start[d] < 0 || s.Count[d] < 0 || s.Start[d]+s.Count[d] > n {
			return fmt.Errorf("layout: slab dim %d [%d,+%d) out of range [0,%d)",
				d, s.Start[d], s.Count[d], n)
		}
	}
	return nil
}

// NumElemsOf returns the total number of elements of an array with dims.
func NumElemsOf(dims []int64) int64 {
	n := int64(1)
	for _, d := range dims {
		n *= d
	}
	return n
}

// CoordsToOffset returns the linear element offset of coords in dims.
func CoordsToOffset(dims, coords []int64) int64 {
	var off int64
	for d := range dims {
		off = off*dims[d] + coords[d]
	}
	return off
}

// OffsetToCoords returns the coordinates of linear element offset off. The
// result is written into out if it has the right length, else allocated.
func OffsetToCoords(dims []int64, off int64, out []int64) []int64 {
	if len(out) != len(dims) {
		out = make([]int64, len(dims))
	}
	for d := len(dims) - 1; d >= 0; d-- {
		out[d] = off % dims[d]
		off /= dims[d]
	}
	return out
}

// Flatten converts the hyperslab into sorted, disjoint, maximally-coalesced
// runs of linear element offsets. The caller must Validate first; Flatten
// panics on an invalid slab to surface programming errors.
func Flatten(dims []int64, s Slab) []Run {
	if err := Validate(dims, s); err != nil {
		panic(err)
	}
	nd := len(dims)
	if nd == 0 || s.NumElems() == 0 {
		return nil
	}
	// rowLen: contiguous span per innermost iteration. Dimensions that are
	// selected fully and contiguously fold into the row from the fast end.
	rowDims := 0 // number of trailing dims fully covered
	rowLen := int64(1)
	for d := nd - 1; d >= 0; d-- {
		if s.Start[d] == 0 && s.Count[d] == dims[d] {
			rowDims++
			rowLen *= dims[d]
		} else {
			break
		}
	}
	outer := nd - rowDims
	if outer == 0 {
		return []Run{{Offset: 0, Length: rowLen}}
	}
	// The innermost non-full dimension contributes a contiguous span of
	// Count[outer-1]*rowLen elements per outer iteration.
	rowLen *= s.Count[outer-1]
	outer--

	strides := make([]int64, nd)
	strides[nd-1] = 1
	for d := nd - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * dims[d+1]
	}

	nRuns := int64(1)
	for d := 0; d < outer; d++ {
		nRuns *= s.Count[d]
	}
	runs := make([]Run, 0, nRuns)
	idx := make([]int64, outer)
	base := int64(0)
	for d := 0; d < outer; d++ {
		base += s.Start[d] * strides[d]
	}
	// Start offset of the folded row part.
	if outer < nd {
		base += s.Start[outer] * strides[outer]
	}
	for {
		off := base
		for d := 0; d < outer; d++ {
			off += idx[d] * strides[d]
		}
		if n := len(runs); n > 0 && runs[n-1].End() == off {
			runs[n-1].Length += rowLen
		} else {
			runs = append(runs, Run{Offset: off, Length: rowLen})
		}
		// Odometer increment over outer dims, last (fastest) first.
		d := outer - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < s.Count[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
	return runs
}

// Coalesce merges adjacent or overlapping runs in place after sorting by
// offset, returning the canonical form. Overlaps are unioned.
func Coalesce(runs []Run) []Run {
	if len(runs) == 0 {
		return runs
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Offset < runs[j].Offset })
	out := runs[:1]
	for _, r := range runs[1:] {
		last := &out[len(out)-1]
		if r.Offset <= last.End() {
			if r.End() > last.End() {
				last.Length = r.End() - last.Offset
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// TotalLength sums the lengths of runs.
func TotalLength(runs []Run) int64 {
	var n int64
	for _, r := range runs {
		n += r.Length
	}
	return n
}

// Intersect returns the part of r within the half-open window [lo, hi), and
// whether it is non-empty.
func Intersect(r Run, lo, hi int64) (Run, bool) {
	o := r.Offset
	if lo > o {
		o = lo
	}
	e := r.End()
	if hi < e {
		e = hi
	}
	if e <= o {
		return Run{}, false
	}
	return Run{Offset: o, Length: e - o}, true
}

// Window clips a sorted run list to [lo, hi). The runs must be sorted and
// disjoint (as produced by Flatten/Coalesce); the result preserves order.
func Window(runs []Run, lo, hi int64) []Run {
	// Binary search for the first run that could intersect.
	i := sort.Search(len(runs), func(i int) bool { return runs[i].End() > lo })
	var out []Run
	for ; i < len(runs); i++ {
		if runs[i].Offset >= hi {
			break
		}
		if r, ok := Intersect(runs[i], lo, hi); ok {
			out = append(out, r)
		}
	}
	return out
}

// Bounds returns the minimal [lo, hi) covering all runs, or (0,0) for none.
func Bounds(runs []Run) (lo, hi int64) {
	if len(runs) == 0 {
		return 0, 0
	}
	return runs[0].Offset, runs[len(runs)-1].End()
}

// RunToSlabs is the logical construction of the paper's Figure 8: it
// decomposes a linear run back into rectangular hyperslabs of the dims
// geometry. Each returned slab is a set of whole or partial rows; slabs that
// are adjacent along one dimension and identical in all others are merged
// when coalesce is true (the runtime's metadata-reduction optimization).
// It is SlabScratch.RunToSlabs on a fresh scratch, so the slabs are the
// caller's.
func RunToSlabs(dims []int64, r Run, coalesce bool) []Slab {
	var sc SlabScratch
	return sc.RunToSlabs(dims, r, coalesce)
}

// SlabScratch is the reusable storage of RunToSlabs: one caller's slab list
// and the coordinates behind it, kept from call to call. The zero value is
// ready to use; a SlabScratch serves one goroutine at a time.
type SlabScratch struct {
	coords []int64
	ints   []int64 // per slab, Start then Count: 2*len(dims) values
	slabs  []Slab
}

// RunToSlabs is the package's RunToSlabs into sc: the same slabs, valid
// until sc's next call. A warm scratch allocates nothing. The run is walked
// row by row, and each row is merged into the slab before it as it is
// produced: the one linear merge pass row-ordered slabs need.
func (sc *SlabScratch) RunToSlabs(dims []int64, r Run, coalesce bool) []Slab {
	nd := len(dims)
	if nd == 0 || r.Length <= 0 {
		return nil
	}
	rowLen := dims[nd-1]
	sc.ints, sc.slabs = sc.ints[:0], sc.slabs[:0]
	var span int64
	for off, left := r.Offset, r.Length; left > 0; off, left = off+span, left-span {
		sc.coords = OffsetToCoords(dims, off, sc.coords)
		span = min(rowLen-sc.coords[nd-1], left)
		// The row's values go after the last slab's, and stay only if the
		// row does not merge into it.
		at := len(sc.ints)
		sc.ints = append(sc.ints, sc.coords...)
		for d := 1; d < nd; d++ {
			sc.ints = append(sc.ints, 1)
		}
		sc.ints = append(sc.ints, span)
		if coalesce && len(sc.slabs) > 0 {
			last := sc.slabAt(at-2*nd, nd)
			if tryMerge(&last, sc.slabAt(at, nd)) {
				sc.ints = sc.ints[:at]
				continue
			}
		}
		sc.slabs = append(sc.slabs, Slab{})
	}
	// The appends may have moved the values: point the slabs at them last.
	for i := range sc.slabs {
		sc.slabs[i] = sc.slabAt(2*nd*i, nd)
	}
	return sc.slabs
}

// slabAt is the slab whose Start begins at sc.ints[at], capped so that an
// append to Start or Count cannot write into its neighbour.
func (sc *SlabScratch) slabAt(at, nd int) Slab {
	return Slab{Start: sc.ints[at : at+nd : at+nd], Count: sc.ints[at+nd : at+2*nd : at+2*nd]}
}

// tryMerge merges b into a if they are adjacent along exactly one dimension
// with identical extents elsewhere. Returns whether it merged.
func tryMerge(a *Slab, b Slab) bool {
	nd := len(a.Start)
	if nd != len(b.Start) {
		return false
	}
	mergeDim := -1
	for d := 0; d < nd; d++ {
		if a.Start[d] == b.Start[d] && a.Count[d] == b.Count[d] {
			continue
		}
		if mergeDim != -1 {
			return false // differs in more than one dim
		}
		if a.Start[d]+a.Count[d] == b.Start[d] {
			mergeDim = d
		} else {
			return false
		}
	}
	if mergeDim == -1 {
		return false // identical slabs; don't double-count
	}
	a.Count[mergeDim] += b.Count[mergeDim]
	return true
}

// SlabsToRuns flattens each slab and coalesces the union — the inverse check
// for RunToSlabs, used by tests and by the write path.
func SlabsToRuns(dims []int64, slabs []Slab) []Run {
	var runs []Run
	for _, s := range slabs {
		runs = append(runs, Flatten(dims, s)...)
	}
	return Coalesce(runs)
}

// MetadataBytes returns the size of the coordinate metadata needed to
// describe the slabs: per slab, start+count per dimension at 8 bytes each
// (the "logical coordinates" cost of paper Figure 12), plus an 8-byte owner
// tag per slab.
func MetadataBytes(slabs []Slab) int64 {
	var n int64
	for _, s := range slabs {
		n += 8 + int64(len(s.Start))*16
	}
	return n
}
