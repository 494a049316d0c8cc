package ncfile

import (
	"fmt"
	"sort"

	"repro/internal/layout"
	"repro/internal/pfs"
)

// ValueFn produces a variable's value at logical coordinates. It must be
// deterministic and cheap: synthetic files are regenerated on every read.
// It may run on several host workers at once, and must not keep coords.
type ValueFn func(coords []int64) float64

// Gen generates a run of variable values along the fastest-varying (last)
// dimension in one call: out[k] receives the value at coords with the last
// coordinate advanced by k. Implementations can hoist work that only depends
// on the slower coordinates out of the per-element loop, which is where
// synthetic reads spend their time; results must be bit-identical to calling
// a per-element function once per k.
//
// FillRow may run on several host workers or fold slots at once, each with
// its own coords and a disjoint out (see host.Pool, host.Slots). It must
// leave coords as it found them and keep no reference to either slice. A Gen
// that is also a Scanner folds rows without storing them, where the variable
// is Float32 (see CanScan).
type Gen interface {
	FillRow(coords []int64, out []float64)
}

// fnGen adapts a plain per-element ValueFn to the Gen interface. It keeps no
// state of its own: it walks the caller's last coordinate and puts it back.
type fnGen struct{ fn ValueFn }

func (g fnGen) FillRow(coords []int64, out []float64) {
	last := len(coords) - 1
	c0 := coords[last]
	for k := range out {
		out[k] = g.fn(coords)
		coords[last]++
	}
	coords[last] = c0
}

// SynthDataset creates a dataset whose variable contents are generated on
// demand by per-variable value functions — virtual files of hundreds of GB
// with no resident data, the substitution for the paper's 800 GB climate
// dataset and WRF outputs. fns is indexed by variable id; a nil entry yields
// zeros.
func SynthDataset(fs *pfs.FS, name string, s *Schema, fns []ValueFn,
	stripeCount int, stripeSize int64, firstOST int) (*Dataset, error) {
	if len(s.vars) == 0 {
		return nil, fmt.Errorf("ncfile: schema has no variables")
	}
	if len(fns) != len(s.vars) {
		return nil, fmt.Errorf("ncfile: %d value functions for %d variables", len(fns), len(s.vars))
	}
	gens := make([]Gen, len(fns))
	for i, fn := range fns {
		if fn != nil {
			gens[i] = fnGen{fn: fn}
		}
	}
	return SynthDatasetGen(fs, name, s, gens, stripeCount, stripeSize, firstOST)
}

// SynthDatasetGen is SynthDataset with row-batched generators: value
// producers that fill whole runs along the fastest dimension per call, so
// per-row invariants (seasonal terms, partial hashes) are hoisted out of the
// element loop. gens is indexed by variable id; a nil entry yields zeros.
//
// The file is immutable (its backend rejects writes) and its contents are a
// pure function of (variable, coordinates), which is what lets the dataset
// serve the same data two ways: as bytes through its backend, and as values
// through Values without the bytes ever existing.
func SynthDatasetGen(fs *pfs.FS, name string, s *Schema, gens []Gen,
	stripeCount int, stripeSize int64, firstOST int) (*Dataset, error) {
	if len(s.vars) == 0 {
		return nil, fmt.Errorf("ncfile: schema has no variables")
	}
	if len(gens) != len(s.vars) {
		return nil, fmt.Errorf("ncfile: %d value generators for %d variables", len(gens), len(s.vars))
	}
	size := s.Layout()
	sy := &synth{vars: s.vars, gens: append([]Gen(nil), gens...), scans: make([]Scanner, len(gens))}
	for i, g := range gens {
		if s.vars[i].Type == Float32 {
			sy.scans[i], _ = g.(Scanner)
		}
	}
	f := fs.Create(name, pfs.NewSynthBackend(size, sy.fill), stripeCount, stripeSize, firstOST)
	return &Dataset{file: f, vars: s.vars, synth: sy}, nil
}

// synth is the generator side of a synthetic dataset: the variables in file
// order (Layout assigns offsets in schema order, so that is id order), their
// generators, the generators that scan a Float32 variable (see CanScan), and
// the backend fill's coordinate and value scratch, used on a rank's goroutine
// inside a read (and by Values) and kept per dataset for the reason
// Dataset.work is.
type synth struct {
	vars   []Var
	gens   []Gen     // by variable id; nil = zeros
	scans  []Scanner // by variable id; nil = no scan
	coords []int64
	vals   []float64
}

// Synthetic reports whether the dataset is generator-backed, i.e. whether
// its values can be had without reading and decoding its bytes (see Values).
func (ds *Dataset) Synthetic() bool { return ds.synth != nil }

// Values returns the values of the elements of variable id in elemRuns (runs
// of linear element indices, in order), concatenated, in out's storage when
// its capacity suffices. It is where a generator-backed dataset is told
// from one holding real bytes for the readers that turn a read into values
// (GetVara, GetVaraAll, and through WorkerValues the collective-computing
// map and the traditional leg's fold):
//
//   - A Synthetic dataset is immutable and a pure function of (variable,
//     coordinates), so when and in what form its content is produced is
//     unobservable: the values are generated here (synthValues), bit for bit
//     what decoding the backend's bytes would give, and raw is not looked at.
//     Its readers therefore issue adio.Request.ChargeOnly reads — the whole
//     cost of the read and no bytes.
//   - Any other dataset is a mutable store whose read observed it at issue:
//     raw holds the elements' bytes as that read delivered them,
//     concatenated, and they are decoded.
//
// Values makes the values on the calling goroutine, with the coordinate
// scratch of the backend's fill: like a read, it runs on a rank's goroutine,
// never on a host worker or a fold slot.
func (ds *Dataset) Values(id int, elemRuns []layout.Run, raw []byte, out []float64) []float64 {
	if ds.synth == nil {
		return DecodeValues(ds.vars[id].Type, raw, out)
	}
	return ds.synthValues(&ds.synth.coords, id, elemRuns, out)
}

// WorkerValues is Values on one host worker or fold slot: the values land in
// w's own buffer, valid until w's next WorkerValues call, and are produced
// with w's scratch alone, so that several workers can call it at once.
func (ds *Dataset) WorkerValues(w *Worker, id int, elemRuns []layout.Run, raw []byte) []float64 {
	if ds.synth == nil {
		w.vals = DecodeValues(ds.vars[id].Type, raw, w.vals)
	} else {
		w.vals = ds.synthValues(&w.coords, id, elemRuns, w.vals)
	}
	return w.vals
}

// synthValues returns the values of the elements of variable id in elemRuns,
// concatenated — what DecodeValues returns for those elements' bytes, bit for
// bit, without producing the bytes: the generator writes straight into out
// (reused when its capacity suffices, as with DecodeValues) and the element
// type's encode/decode round trip (float64 -> type -> float64) is applied in
// place, walking coords (scratch) along the rows. The dataset must be
// Synthetic and the runs inside the variable.
func (ds *Dataset) synthValues(coords *[]int64, id int, elemRuns []layout.Run, out []float64) []float64 {
	out = resize(out, layout.TotalLength(elemRuns))
	g := ds.synth.gens[id]
	if g == nil {
		clear(out)
		return out
	}
	v, pos := &ds.vars[id], int64(0)
	for _, r := range elemRuns {
		rows(v, r.Offset, r.End(), coords, func(e, n int64, c []int64) {
			row := out[pos+e-r.Offset:][:n]
			g.FillRow(c, row)
			roundTrip(v.Type, row) // while the row is still in cache
		})
		pos += r.Length
	}
	return out
}

// rows calls fn once per maximal run of elements [e, e+n) of v within
// [first, last) that stays in one row of the fastest dimension, with the
// coordinates of element e, held in scratch: valid during the call only.
func rows(v *Var, first, last int64, scratch *[]int64, fn func(e, n int64, coords []int64)) {
	nd := len(v.Dims)
	if cap(*scratch) < nd {
		*scratch = make([]int64, nd)
	}
	coords := layout.OffsetToCoords(v.Dims, first, (*scratch)[:nd])
	lastDim := v.Dims[nd-1]
	for e := first; e < last; {
		n := lastDim - coords[nd-1]
		if e+n > last {
			n = last - e
		}
		fn(e, n, coords)
		e += n
		// Odometer increment by n: the run ends at a row boundary (or at
		// last, in which case the loop exits and coords are dead).
		coords[nd-1] += n
		for d := nd - 1; d > 0 && coords[d] >= v.Dims[d]; d-- {
			coords[d] = 0
			coords[d-1]++
		}
	}
}

// fill is the backend's content function: p receives the file bytes
// [off, off+len(p)). Every byte of p is written exactly once — generated
// where a generator covers it, zero elsewhere (the reserved first page, alignment
// padding, variables without a generator, anything past the last variable) —
// so p's previous contents never matter and nothing is cleared first.
func (sy *synth) fill(off int64, p []byte) {
	lo, hi := off, off+int64(len(p))
	pos := lo // bytes of p before pos are final
	// First variable whose data extends past lo.
	i := sort.Search(len(sy.vars), func(i int) bool {
		return sy.vars[i].Offset+sy.vars[i].Bytes() > lo
	})
	for ; i < len(sy.vars) && sy.vars[i].Offset < hi; i++ {
		v := &sy.vars[i]
		vlo, vhi := max(v.Offset, lo), min(v.Offset+v.Bytes(), hi)
		clear(p[pos-lo : vlo-lo])
		if g := sy.gens[i]; g != nil {
			sy.fillVar(v, g, vlo, vhi, lo, p)
		} else {
			clear(p[vlo-lo : vhi-lo]) // every type encodes 0 as zero bytes
		}
		pos = vhi
	}
	clear(p[pos-lo:])
}

// fillVar writes v's bytes in the file range [vlo, vhi) — non-empty and
// inside both v and p's range, which starts at file offset lo. Values are
// produced row by row through g and encoded with direct little-endian
// stores for whole elements; only the (at most two) elements cut by the
// range's edges take the byte-wise path.
func (sy *synth) fillVar(v *Var, g Gen, vlo, vhi, lo int64, p []byte) {
	sz := v.Type.Size()
	firstElem := (vlo - v.Offset) / sz
	lastElem := (vhi - v.Offset + sz - 1) / sz // exclusive
	rows(v, firstElem, lastElem, &sy.coords, func(e, n int64, coords []int64) {
		if int64(cap(sy.vals)) < n {
			sy.vals = make([]float64, n)
		}
		vals := sy.vals[:n]
		g.FillRow(coords, vals)
		encodeRow(v, e, vals, lo, p)
	})
}

// encodeRow stores vals for the consecutive elements starting at element
// index e of v, clipping to the file range p covers (from offset lo).
func encodeRow(v *Var, e int64, vals []float64, lo int64, p []byte) {
	sz := v.Type.Size()
	base := v.Offset + e*sz - lo // byte pos of element e within p (may be <0)
	n := int64(len(vals))
	// Elements [k0, k1) lie fully inside p; at most one element on each side
	// is clipped by the extent edge.
	k0, k1 := int64(0), n
	for k0 < n && base+k0*sz < 0 {
		k0++
	}
	for k1 > k0 && base+k1*sz > int64(len(p)) {
		k1--
	}
	if k0 < k1 {
		encode(v.Type, p[base+k0*sz:base+k1*sz], vals[k0:k1])
	}
	// Edge elements: byte-wise copy of the in-range slice.
	var tmp [8]byte
	for _, k := range [2]int64{k0 - 1, k1} {
		if k < 0 || k >= n || (k >= k0 && k < k1) {
			continue
		}
		encode(v.Type, tmp[:sz], vals[k:k+1])
		eLo := base + k*sz
		for b := int64(0); b < sz; b++ {
			if o := eLo + b; o >= 0 && o < int64(len(p)) {
				p[o] = tmp[b]
			}
		}
	}
}
