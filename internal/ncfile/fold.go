package ncfile

import (
	"sync"

	"repro/internal/adio"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// foldUnit is the size, in elements, that FoldVara grows its units to: a
// quarter of host.Grain, one time step of a rank's subset in paper_cc. The
// last unit's fold is the one nothing overlaps, so smaller units finish a
// read sooner; each costs an Absorb call and a turn of the fold's lock.
const foldUnit = host.Grain / 4

// Folder consumes a read's values unit by unit (see FoldVara).
type Folder interface {
	// Fold receives the values of unit, a sub-rectangle of the slab read, in
	// row-major order. unit and vals are valid only during the call.
	Fold(unit layout.Slab, vals []float64)
}

// FoldVara reads the hyperslab of variable id and hands its values to
// f.Fold in units: consecutive row-major sub-rectangles of the slab that
// tile it (see unitShape). The read is independent, with data sieving, when
// independent is set, and otherwise collective over c through aggrs, every
// member of c calling it. The values are put in a per-dataset scratch that
// the next rank to fold this dataset overwrites, so Fold keeps no reference.
//
// The units are made on the dataset's host workers (RunWorkers), and each
// is folded as soon as it and every unit before it exist, while the other
// workers go on making later units. Whatever the schedule, the Fold calls
// come in row-major order and never overlap: a worker that finishes a unit
// marks it made, and if no other worker is folding it folds every made
// unit in order from the first not yet folded, releasing the lock around
// each call; a worker that finishes out of turn leaves its unit to the
// folder and does not wait. Fold runs on a host worker: it must not yield
// to the simulation kernel. All calls have returned when FoldVara does.
func (ds *Dataset) FoldVara(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, id int, slab layout.Slab,
	aggrs []int, p adio.Params, independent bool, f Folder) error {
	elems, raw, err := ds.readVara(id, slab, func(rq adio.Request) error {
		if independent {
			return adio.IndependentRead(cl, ds.file, rq, p)
		}
		return adio.CollectiveRead(r, c, cl, ds.file, rq, aggrs, p)
	})
	if err != nil {
		return err
	}
	// The scratch is picked up here, after the read's last yield.
	n := slab.NumElems()
	ds.decoded = resize(ds.decoded, n)
	var g Gen
	if ds.synth != nil {
		g = ds.synth.gens[id]
	}
	q := ds.start(id, elems, g, raw, ds.decoded)
	q.f = f
	q.slab.Start = append(q.slab.Start[:0], slab.Start...)
	q.slab.Count = append(q.slab.Count[:0], slab.Count...)
	q.sub.Start = append(q.sub.Start[:0], slab.Start...)
	q.sub.Count = append(q.sub.Count[:0], slab.Count...)
	q.split, q.span = unitShape(slab.Count)
	count := slab.Count
	inner := layout.NumElemsOf(count[q.split+1:])
	for o := int64(0); o < layout.NumElemsOf(count[:q.split]); o++ {
		for m := int64(0); m < count[q.split]; m += q.span {
			q.cut((o*count[q.split] + m) * inner)
		}
	}
	q.done = append(q.done[:0], make([]bool, len(q.cuts))...)
	ds.run(n)
	return nil
}

// unitShape returns how FoldVara cuts a slab with these counts into units:
// a unit fixes the coordinates of the dimensions before d, takes span
// consecutive indices of dimension d (fewer in the last unit along it when
// span does not divide its count), and all of every dimension after d. d is
// the first dimension whose inner rectangle — the dimensions after it —
// holds at most foldUnit elements, and span as many of its indices as fit
// in foldUnit with that rectangle. A row is never cut: d is at most the
// next-to-last dimension, so a slab of rows longer than foldUnit is folded
// a row at a time, and a one-dimensional slab in one unit. A slab of at
// most foldUnit elements is one unit.
func unitShape(count []int64) (d int, span int64) {
	if len(count) == 1 {
		return 0, count[0]
	}
	inner := layout.NumElemsOf(count[1:])
	for ; d < len(count)-2 && inner > foldUnit; d++ {
		inner /= count[d+1]
	}
	return d, min(max(foldUnit/inner, 1), count[d])
}

// unitReq is the request the dataset's host workers are working on: out
// receives the values of v's elements in runs, concatenated, in the units
// cuts marks, each made from raw, the elements' bytes, when the dataset
// holds bytes, and otherwise by generator g (zeros when g is nil). A fold
// (FoldVara) also sets f and the fields after it.
type unitReq struct {
	v    *Var
	g    Gen
	raw  []byte
	runs []layout.Run
	out  []float64
	cuts []unitCut

	f         Folder
	slab, sub layout.Slab // the slab read, and the slab of the unit being folded
	split     int         // unitShape's d and span for slab
	span      int64
	mu        sync.Mutex // guards the fields below
	done      []bool     // per unit: made
	next      int        // the first unit not yet folded
	folding   bool       // a worker is folding
}

// unitCut is where a unit starts: element lo of the request, which is
// element off of run number run.
type unitCut struct {
	run     int
	off, lo int64
}

// start sets up a request for the values of variable id's elements in
// elemRuns, concatenated into out, from raw or else g, with no units yet
// and no fold. The runs are copied into the dataset's scratch: keeping the
// caller's slice would move it to the heap on every call.
func (ds *Dataset) start(id int, elemRuns []layout.Run, g Gen, raw []byte, out []float64) *unitReq {
	q := &ds.req
	q.v, q.g, q.raw, q.out = &ds.vars[id], g, raw, out
	q.runs = append(q.runs[:0], elemRuns...)
	q.cuts = q.cuts[:0]
	q.f, q.next, q.folding = nil, 0, false
	return q
}

// cut starts the request's next unit at element lo, past every unit it
// has already started.
func (q *unitReq) cut(lo int64) {
	r, pos := 0, int64(0) // run r starts at element pos of out
	if k := len(q.cuts); k > 0 {
		c := q.cuts[k-1]
		r, pos = c.run, c.lo-c.off
	}
	for lo >= pos+q.runs[r].Length {
		pos += q.runs[r].Length
		r++
	}
	q.cuts = append(q.cuts, unitCut{run: r, off: lo - pos, lo: lo})
}

// run makes the request's units on the host workers (elems is its size) and
// lets go of what the request borrowed from its caller.
func (ds *Dataset) run(elems int64) {
	if ds.unit == nil {
		ds.unit = ds.runUnit // bound once, so that a call allocates nothing
	}
	ds.work.Run(len(ds.req.cuts), elems, ds.unit)
	ds.req.raw, ds.req.out, ds.req.f = nil, nil, nil
}

// runUnit makes unit i of the current request and, in a fold, folds it.
func (ds *Dataset) runUnit(w *Worker, i int) {
	q := &ds.req
	lo, hi := q.bounds(i)
	out := q.out[lo:hi]
	switch {
	case q.raw != nil:
		sz := q.v.Type.Size()
		decode(q.v.Type, out, q.raw[lo*sz:hi*sz])
	case q.g != nil:
		c := q.cuts[i]
		fillValues(&w.coords, q.v, q.g, q.runs[c.run:], c.off, out)
	default:
		clear(out)
	}
	if q.f != nil {
		q.fold(i)
	}
}

// bounds returns the elements [lo, hi) of the request unit i holds.
func (q *unitReq) bounds(i int) (lo, hi int64) {
	lo, hi = q.cuts[i].lo, int64(len(q.out))
	if i+1 < len(q.cuts) {
		hi = q.cuts[i+1].lo
	}
	return lo, hi
}

// fold marks unit i made and, unless another worker is folding, folds
// every made unit from the first not yet folded on, in order, until it
// reaches one not made. A unit marked while it folds is seen when it next
// takes the lock, so none is left behind.
func (q *unitReq) fold(i int) {
	q.mu.Lock()
	q.done[i] = true
	if q.folding {
		q.mu.Unlock()
		return
	}
	q.folding = true
	for q.next < len(q.done) && q.done[q.next] {
		j := q.next
		q.mu.Unlock()
		lo, hi := q.bounds(j)
		q.f.Fold(q.unitSlab(j), q.out[lo:hi])
		q.mu.Lock()
		q.next++
	}
	q.folding = false
	q.mu.Unlock()
}

// unitSlab returns the slab of unit j, in q.sub: unit j is the m-th span
// along dimension split of the o-th combination of the dimensions before it,
// in row-major order. The dimensions after split were set from the slab
// when the fold started.
func (q *unitReq) unitSlab(j int) layout.Slab {
	s, sub, d := q.slab, q.sub, q.split
	per := (s.Count[d] + q.span - 1) / q.span
	o, m := int64(j)/per, int64(j)%per
	for e := d - 1; e >= 0; e-- {
		sub.Start[e], sub.Count[e] = s.Start[e]+o%s.Count[e], 1
		o /= s.Count[e]
	}
	sub.Start[d] = s.Start[d] + m*q.span
	sub.Count[d] = min(q.span, s.Count[d]-m*q.span)
	return sub
}
