package cc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/layout"
)

// PerIndex lifts an operator to run independently for every index along the
// variable's slowest dimension — the "iterative operations" the paper lists
// as future work. One object I/O computes a whole time series (e.g. the
// minimum sea-level pressure of *each* time step, i.e. a storm track)
// instead of a single aggregate, still shuffling only partial results.
//
// The partial state is a map from index to the inner operator's state;
// StateBytes scales with the number of distinct indices a partial may hold,
// so Keys must bound the index count of one rank's access region.
type PerIndex struct {
	// Inner is applied per index.
	Inner Op
	// Keys bounds how many distinct indices one partial state can hold
	// (used for message sizing). Typically the per-rank time-step count.
	Keys int64
}

// IndexedValue is one point of an extracted series.
type IndexedValue struct {
	Index int64
	Value float64
	State State
}

type perIndexState map[int64]State

// Name implements Op.
func (p PerIndex) Name() string { return "per-index/" + p.Inner.Name() }

// Zero implements Op.
func (p PerIndex) Zero() State { return perIndexState{} }

// StateBytes implements Op: a partial can hold up to Keys indexed states.
func (p PerIndex) StateBytes() int64 {
	k := p.Keys
	if k < 1 {
		k = 1
	}
	return k * (8 + p.Inner.StateBytes())
}

// Absorb implements Op, splitting the subset into one slice per index along
// dimension 0 (slices are contiguous in row-major order).
func (p PerIndex) Absorb(s State, sub Subset) State {
	st := s.(perIndexState)
	out := make(perIndexState, len(st))
	for k, v := range st {
		out[k] = v
	}
	n0 := sub.Slab.Count[0]
	if n0 <= 0 {
		return out
	}
	chunk := int64(len(sub.Data)) / n0
	for i := int64(0); i < n0; i++ {
		key := sub.Slab.Start[0] + i
		slice := Subset{
			Slab: layout.Slab{
				Start: append([]int64{key}, sub.Slab.Start[1:]...),
				Count: append([]int64{1}, sub.Slab.Count[1:]...),
			},
			Data: sub.Data[i*chunk : (i+1)*chunk],
		}
		cur, ok := out[key]
		if !ok {
			cur = p.Inner.Zero()
		}
		out[key] = p.Inner.Absorb(cur, slice)
	}
	return out
}

// Merge implements Op.
func (p PerIndex) Merge(a, b State) State {
	x, y := a.(perIndexState), b.(perIndexState)
	out := make(perIndexState, len(x)+len(y))
	for k, v := range x {
		out[k] = v
	}
	for k, v := range y {
		if cur, ok := out[k]; ok {
			out[k] = p.Inner.Merge(cur, v)
		} else {
			out[k] = v
		}
	}
	return out
}

// Value implements Op: the inner value of all indices merged together (for
// MinLoc, the global minimum across the series).
func (p PerIndex) Value(s State) float64 {
	st := s.(perIndexState)
	acc := p.Inner.Zero()
	for _, v := range st {
		acc = p.Inner.Merge(acc, v)
	}
	return p.Inner.Value(acc)
}

// Series extracts the per-index results in index order.
func (p PerIndex) Series(s State) []IndexedValue {
	st, ok := s.(perIndexState)
	if !ok {
		panic(fmt.Sprintf("cc: Series on %T, want PerIndex state", s))
	}
	out := make([]IndexedValue, 0, len(st))
	for k, v := range st {
		out = append(out, IndexedValue{Index: k, Value: p.Inner.Value(v), State: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Fuse runs several operators in a single pass over the data — one object
// I/O yields min, max, mean, … together, paying the I/O once. The fused
// state is the slice of the inner states; Value reports the first
// operator's value, and Values extracts all of them.
type Fuse struct {
	Ops []Op
}

type fuseState []State

// Name implements Op.
func (f Fuse) Name() string {
	names := make([]string, len(f.Ops))
	for i, op := range f.Ops {
		names[i] = op.Name()
	}
	return "fuse(" + strings.Join(names, ",") + ")"
}

// Zero implements Op.
func (f Fuse) Zero() State {
	st := make(fuseState, len(f.Ops))
	for i, op := range f.Ops {
		st[i] = op.Zero()
	}
	return st
}

// StateBytes implements Op.
func (f Fuse) StateBytes() int64 {
	var n int64
	for _, op := range f.Ops {
		n += op.StateBytes()
	}
	return n
}

// Absorb implements Op.
func (f Fuse) Absorb(s State, sub Subset) State {
	in := s.(fuseState)
	out := make(fuseState, len(f.Ops))
	for i, op := range f.Ops {
		out[i] = op.Absorb(in[i], sub)
	}
	return out
}

// Merge implements Op.
func (f Fuse) Merge(a, b State) State {
	x, y := a.(fuseState), b.(fuseState)
	out := make(fuseState, len(f.Ops))
	for i, op := range f.Ops {
		out[i] = op.Merge(x[i], y[i])
	}
	return out
}

// Value implements Op: the first operator's value.
func (f Fuse) Value(s State) float64 {
	if len(f.Ops) == 0 {
		return 0
	}
	return f.Ops[0].Value(s.(fuseState)[0])
}

// StateOf returns the i-th fused operator's final state.
func (f Fuse) StateOf(s State, i int) State { return s.(fuseState)[i] }
