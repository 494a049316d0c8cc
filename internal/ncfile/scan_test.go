package ncfile

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// TestByteScanMatchesDecodedFold: Scan over a stored Float32 variable's
// bytes leaves, for every fold, the accumulator that the scan's rules
// (Scanner) leave when applied one value at a time to DecodeValues of the
// same bytes. The run lists have one to four runs, whose bytes Scan takes in
// turn from their concatenation; the folds start from no value and from one
// held; the values include NaNs, infinities, signed zeros and ties.
func TestByteScanMatchesDecodedFold(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var s Schema
	id, _ := s.AddVar("v", Float32, []int64{7, 300})
	ds, _ := Create(pfs.New(sim.NewEnv(), pfs.Params{}), "f", &s, pfs.NewMemBackend(0), 1, 0, 0)
	if !ds.CanScan(id) {
		t.Fatal("a stored Float32 variable does not scan")
	}
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), 1.5, 1.5}
	var w Worker
	for trial := 0; trial < 400; trial++ {
		var runs []layout.Run
		var raw []byte
		for k := 1 + rng.Intn(4); k > 0; k-- {
			r := layout.Run{Offset: rng.Int63n(2000)}
			r.Length = 1 + rng.Int63n(min(2100-r.Offset, 300))
			runs = append(runs, r)
			for i := int64(0); i < r.Length; i++ {
				v := float32(rng.NormFloat64() * 100)
				if rng.Intn(8) == 0 {
					v = special[rng.Intn(len(special))]
				}
				raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
			}
		}
		vals := DecodeValues(Float32, raw, nil)
		for _, kind := range []AccKind{AccSum, AccMin, AccMax} {
			for _, start := range []Acc{{Kind: kind}, {Kind: kind, Val: 0.5, Valid: true, Idx: 9}} {
				want, i := start, 0
				for _, r := range runs {
					for e := r.Offset; e < r.End(); e++ {
						v := vals[i]
						i++
						switch {
						case kind == AccSum:
							want.Val += v
						case kind == AccMin && (v < want.Val || !want.Valid),
							kind == AccMax && (v > want.Val || !want.Valid):
							want.Val, want.Valid, want.Idx = v, true, e
						}
					}
				}
				got := start
				ds.Scan(&w, id, runs, raw, &got)
				if math.Float64bits(got.Val) != math.Float64bits(want.Val) || got.Valid != want.Valid || got.Idx != want.Idx {
					t.Fatalf("fold %d from %+v over runs %v: %+v, one value at a time %+v", kind, start, runs, got, want)
				}
			}
		}
	}
}
