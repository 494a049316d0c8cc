package ncfile

import (
	"encoding/binary"
	"math"

	"repro/internal/layout"
)

// Scanner is a Gen that can fold a row's values into an accumulator as it
// makes them, each rounded by Float32Round as a Float32 variable's codec
// rounds it, so that no value is stored. The methods walk the n values at
// coords and on along the last coordinate, like FillRow: they may run on
// several host workers at once, must leave coords as they found them, and
// give the bits FillRow, the round trip and the same fold over out would.
// A generator computes each value with one element function that FillRow and
// every scan loop call, so the formula exists once.
type Scanner interface {
	Gen
	// SumRow returns acc plus the row's n rounded values, added one at a
	// time in row order.
	SumRow(coords []int64, n int, acc float64) float64
	// MinRow passes the row's n rounded values v, in row order, through the
	// rule "if v < best || !valid, v becomes best and valid is set", and
	// returns the final best and the index in the row of the last value that
	// became it, -1 when none did.
	MinRow(coords []int64, n int, best float64, valid bool) (float64, int)
	// MaxRow is MinRow with v > best.
	MaxRow(coords []int64, n int, best float64, valid bool) (float64, int)
}

// AccKind is the fold a scan does (see Scanner).
type AccKind uint8

// The folds.
const (
	AccSum AccKind = iota // SumRow
	AccMin                // MinRow
	AccMax                // MaxRow
)

// Acc is a scan's accumulator.
type Acc struct {
	Kind AccKind
	// Val is the running sum (AccSum) or the best value so far.
	Val float64
	// Valid reports, for AccMin and AccMax, that Val is a value: until it
	// is, the next value becomes the best whatever it is.
	Valid bool
	// Idx is, for AccMin and AccMax, the linear element index in the
	// variable of the last value that became the best; the scan leaves it
	// alone until one does.
	Idx int64
}

// CanScan reports whether variable id's values can be folded without being
// stored (Scan): the variable is Float32, and the dataset either holds bytes
// or is generator-backed with a Scanner for it. It is a property of the
// dataset, fixed when it is made.
func (ds *Dataset) CanScan(id int) bool {
	if ds.synth == nil {
		return ds.vars[id].Type == Float32
	}
	return ds.synth.scans[id] != nil
}

// Scan folds the values of variable id's elements in elemRuns (runs of
// linear element indices, in order) into acc on host worker or fold slot w:
// the fold of what WorkerValues would return, bit for bit, with no value
// stored. raw is the runs' bytes, concatenated, when the dataset holds bytes
// (each value is read from them as decode reads it), and nil when it is
// Synthetic (the generator's scan makes each value, walking w's coordinate
// scratch along the rows). The variable must scan (CanScan).
func (ds *Dataset) Scan(w *Worker, id int, elemRuns []layout.Run, raw []byte, acc *Acc) {
	if ds.synth == nil {
		for _, r := range elemRuns {
			n := r.Length * 4
			scanFloat32(raw[:n], r.Offset, acc)
			raw = raw[n:]
		}
		return
	}
	v, g := &ds.vars[id], ds.synth.scans[id]
	for _, r := range elemRuns {
		rows(v, r.Offset, r.End(), &w.coords, func(e, n int64, c []int64) {
			switch acc.Kind {
			case AccSum:
				acc.Val = g.SumRow(c, int(n), acc.Val)
			case AccMin:
				if best, k := g.MinRow(c, int(n), acc.Val, acc.Valid); k >= 0 {
					acc.Val, acc.Valid, acc.Idx = best, true, e+int64(k)
				}
			case AccMax:
				if best, k := g.MaxRow(c, int(n), acc.Val, acc.Valid); k >= 0 {
					acc.Val, acc.Valid, acc.Idx = best, true, e+int64(k)
				}
			}
		})
	}
}

// scanFloat32 folds the little-endian Float32 elements of b, the first of
// which is element e, into acc under the rules of Scanner's SumRow, MinRow
// and MaxRow. The loops advance b rather than index it, which lets the
// compiler drop the bounds checks.
func scanFloat32(b []byte, e int64, acc *Acc) {
	le := binary.LittleEndian
	if acc.Kind == AccSum {
		s := acc.Val
		for len(b) >= 4 {
			s += float64(math.Float32frombits(le.Uint32(b)))
			b = b[4:]
		}
		acc.Val = s
		return
	}
	best, valid, at := acc.Val, acc.Valid, int64(-1)
	if acc.Kind == AccMin {
		for k := int64(0); len(b) >= 4; k++ {
			if v := float64(math.Float32frombits(le.Uint32(b))); v < best || !valid {
				best, valid, at = v, true, k
			}
			b = b[4:]
		}
	} else {
		for k := int64(0); len(b) >= 4; k++ {
			if v := float64(math.Float32frombits(le.Uint32(b))); v > best || !valid {
				best, valid, at = v, true, k
			}
			b = b[4:]
		}
	}
	if at >= 0 {
		acc.Val, acc.Valid, acc.Idx = best, true, e+at
	}
}
