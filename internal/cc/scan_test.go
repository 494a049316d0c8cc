package cc_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/layout"
	"repro/internal/ncfile"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/wrf"
)

// scanVar is a variable of a production generator that scans.
type scanVar struct {
	name string
	ds   *ncfile.Dataset
	id   int
}

// scanVars makes every production generator's variables: climate's 3-D and
// 4-D fields and WRF's pressure and wind, each on a grid of short rows, so
// that runs cross many rows, and on one whose rows are longer than 2^32, or
// whose rows are indexed past 2^32, so that the coordinates are.
func scanVars(t *testing.T) []scanVar {
	t.Helper()
	fs := pfs.New(sim.NewEnv(), pfs.Params{NumOSTs: 4})
	var vars []scanVar
	for _, dims := range [][]int64{{40, 30, 97}, {3, 5, 1 << 34}} {
		ds, id, err := climate.NewDataset3D(fs, dims, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		vars = append(vars, scanVar{fmt.Sprintf("climate3d%v", dims), ds, id})
	}
	for _, dims := range [][]int64{{8, 24, 10, 64}, {2, 3, 4, 1 << 33}} {
		ds, id, err := climate.NewDataset4D(fs, dims, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		vars = append(vars, scanVar{fmt.Sprintf("climate4d%v", dims), ds, id})
	}
	far := wrf.DefaultStorm(4, 1<<33, 96)
	for _, s := range []wrf.Storm{wrf.DefaultStorm(16, 64, 64), wrf.DefaultStorm(4, 8, 1<<34), far} {
		d, err := wrf.NewDataset(fs, s, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		grid := fmt.Sprintf("[%d %d %d]", s.NT, s.NY, s.NX)
		vars = append(vars, scanVar{"slp" + grid, d.DS, d.SLPVar}, scanVar{"wind10" + grid, d.DS, d.WindVar})
	}
	return vars
}

// scanOps are the operators a scan folds for.
var scanOps = []cc.Op{cc.Sum{}, cc.Mean{}, cc.Min{}, cc.Max{}, cc.MinLoc{}, cc.MaxLoc{}}

// scanCases returns the run lists TestScansMatchAbsorb folds over v, each
// folded from one Zero() like an owner group's pieces: single runs of length
// 1, inside a row from mid-row, from mid-row across a row end, and across
// several short rows; lists of two and three such runs; and pairs of elements
// of one value, so that the least and the greatest are tied (tieRuns).
func scanCases(t *testing.T, v scanVar, rng *rand.Rand) [][]layout.Run {
	t.Helper()
	vr, _ := v.ds.Var(v.id)
	total, row := vr.NumElems(), vr.Dims[len(vr.Dims)-1]
	pick := func() layout.Run {
		start := rng.Int64N(total)
		var n int64
		switch rng.IntN(4) {
		case 0: // one element
			n = 1
		case 1: // inside a row, from mid-row
			n = 1 + rng.Int64N(min(row-start%row, 3000))
		case 2: // from mid-row across a row end
			start = (1+rng.Int64N(total/row-1))*row - 1 - rng.Int64N(min(row-1, 200))
			n = row - start%row + 1 + rng.Int64N(min(row, 200))
		default: // across several rows where rows are short
			n = 1 + rng.Int64N(3000)
		}
		return layout.Run{Offset: start, Length: min(n, total-start)}
	}
	var cases [][]layout.Run
	for i := 0; i < 60; i++ {
		runs := []layout.Run{pick()}
		for k := rng.IntN(3); k > 0; k-- {
			runs = append(runs, pick())
		}
		cases = append(cases, runs)
	}
	// The ties are looked for in the last 2^17 elements of the variable:
	// past 2^32 along the rows, or in the rows' index, where either is
	// that long.
	window := layout.Run{Offset: total - min(total, 1<<17), Length: min(total, 1<<17)}
	var w ncfile.Worker
	ties := tieRuns(v.ds.WorkerValues(&w, v.id, []layout.Run{window}, nil), window.Offset, 4)
	if len(ties) == 0 {
		t.Fatalf("%s: no two elements of %v have one value", v.name, window)
	}
	return append(cases, ties...)
}

// tieRuns returns up to n run lists, each two one-element runs of elements
// of equal value, found among the elements whose values are vals and whose
// first is element base: the fold's least and greatest value are both tied.
// The float32 rounding of the fields makes such pairs, of values whose terms
// differ by less than a float32 can hold.
func tieRuns(vals []float64, base int64, n int) [][]layout.Run {
	first := make(map[float64]int64, len(vals))
	var cases [][]layout.Run
	for e, x := range vals {
		at := base + int64(e)
		f, seen := first[x]
		if !seen {
			first[x] = at
			continue
		}
		if len(cases) < n {
			cases = append(cases, []layout.Run{{Offset: f, Length: 1}, {Offset: at, Length: 1}})
		}
	}
	return cases
}

// TestScansMatchAbsorb is the oracle of the scans: over every production
// generator, for every operator a scan folds for, the fold of random runs
// through the generator's scan gives, to the bit and Loc.Coords included,
// the state the same fold gives through FillRow, the float32 round trip and
// Absorb, which the operator's opaque twin, struct{ cc.Op }, takes: the twin
// hides the operator's type, and only the operator's own type scans. Each
// fold starts from Zero(), as the runtime's do, from the state the previous
// case ended in, and from states far from Zero() (startFar).
func TestScansMatchAbsorb(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 2015))
	var w ncfile.Worker
	for _, v := range scanVars(t) {
		if !v.ds.CanScan(v.id) {
			t.Fatalf("%s does not scan", v.name)
		}
		prev := make([]cc.State, len(scanOps))
		for i, op := range scanOps {
			prev[i] = op.Zero()
		}
		for _, runs := range scanCases(t, v, rng) {
			for i, op := range scanOps {
				for _, st := range []cc.State{op.Zero(), prev[i], startFar(op, 47.5), startFar(op, 1000)} {
					got, scanned := cc.FoldRuns(&w, v.ds, v.id, runs, op, st)
					want, twinScanned := cc.FoldRuns(&w, v.ds, v.id, runs, struct{ cc.Op }{op}, st)
					if !scanned || twinScanned {
						t.Fatalf("%s, %s: scanned %v, twin scanned %v", v.name, op.Name(), scanned, twinScanned)
					}
					if !sameBits(got, want) {
						t.Fatalf("%s, %s from %#v over runs %v: scan gives %#v, Absorb %#v",
							v.name, op.Name(), st, runs, got, want)
					}
					prev[i] = want
				}
			}
		}
	}
}

// startFar is a state of op far from Zero(): a running sum 30 short of 2^46,
// or an extreme of extreme found at (7, 7, 7). From zero the order of a
// sum's additions cannot show: the values are float32s of like magnitude,
// whose sums float64 holds exactly. Past 2^46 a float64 keeps 1/64ths, so
// the sum rounds at every addition from the one that crosses 2^46 on, and
// which values are added before that one is a matter of order. Extremes of
// 47.5, inside the climate fields' range, and 1000, inside the pressure
// field's, make some folds move the extreme and some keep it, coordinates
// included.
func startFar(op cc.Op, extreme float64) cc.State {
	const sum = 1<<46 - 30
	switch op.(type) {
	case cc.Sum:
		return float64(sum)
	case cc.Mean:
		return cc.MeanState{Sum: sum, N: 3}
	case cc.MinLoc, cc.MaxLoc:
		return cc.Loc{Val: extreme, Valid: true, Coords: []int64{7, 7, 7}}
	}
	return extreme
}

// sameBits reports whether two states of the scanning operators are the same
// to the bit.
func sameBits(a, b cc.State) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && eq(x, y)
	case cc.MeanState:
		y, ok := b.(cc.MeanState)
		return ok && eq(x.Sum, y.Sum) && x.N == y.N
	case cc.Loc:
		y, ok := b.(cc.Loc)
		return ok && eq(x.Val, y.Val) && x.Valid == y.Valid && slices.Equal(x.Coords, y.Coords)
	}
	return false
}

// TestZeroAllocScanRow: a warm scan of one row, by every production
// generator and every fold, allocates nothing.
func TestZeroAllocScanRow(t *testing.T) {
	var w ncfile.Worker
	for _, v := range scanVars(t) {
		vr, _ := v.ds.Var(v.id)
		row := min(vr.Dims[len(vr.Dims)-1], 1024)
		runs := []layout.Run{{Offset: vr.NumElems() - row, Length: row}}
		for _, kind := range []ncfile.AccKind{ncfile.AccSum, ncfile.AccMin, ncfile.AccMax} {
			acc := ncfile.Acc{Kind: kind}
			v.ds.Scan(&w, v.id, runs, &acc) // warm-up
			if allocs := testing.AllocsPerRun(100, func() { v.ds.Scan(&w, v.id, runs, &acc) }); allocs != 0 {
				t.Errorf("%s, fold %d: %v allocs per scan of a row, want 0", v.name, kind, allocs)
			}
		}
	}
}
