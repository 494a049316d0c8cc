package cc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adio"
	"repro/internal/layout"
	"repro/internal/ncfile"
)

func TestPerIndexAbsorbSplitsByLeadingDim(t *testing.T) {
	p := PerIndex{Inner: Sum{}, Keys: 4}
	sub := Subset{
		Slab: layout.Slab{Start: []int64{2, 0}, Count: []int64{3, 2}},
		Data: []float64{1, 2, 10, 20, 100, 200},
	}
	st := p.Absorb(p.Zero(), sub).(perIndexState)
	want := map[int64]float64{2: 3, 3: 30, 4: 300}
	if len(st) != 3 {
		t.Fatalf("%d keys", len(st))
	}
	for k, w := range want {
		if got := st[k].(float64); got != w {
			t.Errorf("key %d = %g, want %g", k, got, w)
		}
	}
}

func TestPerIndexMergeCombinesPerKey(t *testing.T) {
	p := PerIndex{Inner: Sum{}, Keys: 4}
	a := perIndexState{1: float64(10), 2: float64(20)}
	b := perIndexState{2: float64(5), 3: float64(7)}
	m := p.Merge(a, b).(perIndexState)
	if m[1].(float64) != 10 || m[2].(float64) != 25 || m[3].(float64) != 7 {
		t.Fatalf("merge = %v", m)
	}
	// Inputs untouched.
	if a[2].(float64) != 20 || len(b) != 2 {
		t.Fatal("merge mutated its inputs")
	}
}

func TestPerIndexValueAndSeries(t *testing.T) {
	p := PerIndex{Inner: Min{}, Keys: 3}
	st := perIndexState{0: 5.0, 1: -2.0, 2: 9.0}
	if v := p.Value(st); v != -2 {
		t.Fatalf("Value = %g", v)
	}
	series := p.Series(st)
	wantIdx := []int64{0, 1, 2}
	wantVal := []float64{5, -2, 9}
	for i := range series {
		if series[i].Index != wantIdx[i] || series[i].Value != wantVal[i] {
			t.Fatalf("series = %v", series)
		}
	}
}

func TestPerIndexStateBytesScalesWithKeys(t *testing.T) {
	small := PerIndex{Inner: Sum{}, Keys: 1}
	big := PerIndex{Inner: Sum{}, Keys: 100}
	if big.StateBytes() <= small.StateBytes() {
		t.Fatal("StateBytes ignores Keys")
	}
	if def := (PerIndex{Inner: Sum{}}).StateBytes(); def <= 0 {
		t.Fatal("zero Keys not clamped")
	}
}

func TestPerIndexSeriesWrongStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PerIndex{Inner: Sum{}}.Series("bogus")
}

// End-to-end: a per-timestep MinLoc over the full pipeline equals a
// brute-force per-timestep scan — the "iterative operations" extension.
func TestPerIndexEndToEndMatchesBruteForce(t *testing.T) {
	dims := []int64{6, 8, 8}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{6, 8, 8}}
	const n = 3
	slabs := splitSlab(whole, n)
	op := PerIndex{Inner: MinLoc{}, Keys: 6}

	// Brute force per time step.
	want := map[int64]Loc{}
	coords := make([]int64, 3)
	for off := int64(0); off < layout.NumElemsOf(dims); off++ {
		layout.OffsetToCoords(dims, off, coords)
		v := valueAt(coords)
		cur, ok := want[coords[0]]
		if !ok || v < cur.Val {
			want[coords[0]] = Loc{Val: v, Coords: append([]int64(nil), coords...), Valid: true}
		}
	}

	for _, mode := range []ReduceMode{AllToOne, AllToAll} {
		tb := newTestbed(t, n, ncfile.Float64, dims)
		results := runObjectGetVara(t, tb, slabs,
			IO{Reduce: mode, Params: adio.Params{CB: 256, Pipeline: true}}, op)
		series := op.Series(results[0].State)
		if len(series) != 6 {
			t.Fatalf("mode %d: %d series points", mode, len(series))
		}
		for _, pt := range series {
			w := want[pt.Index]
			got := pt.State.(Loc)
			if got.Val != w.Val || !reflect.DeepEqual(got.Coords, w.Coords) {
				t.Fatalf("mode %d t=%d: got %+v want %+v", mode, pt.Index, got, w)
			}
		}
	}
}

// Property: PerIndex(Sum) over random subsets equals Sum per leading index.
func TestPerIndexSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 100; iter++ {
		n0 := 1 + int64(rng.Intn(5))
		n1 := 1 + int64(rng.Intn(6))
		start0 := int64(rng.Intn(4))
		data := make([]float64, n0*n1)
		wantPerKey := map[int64]float64{}
		for i := range data {
			data[i] = rng.Float64()*100 - 50
			wantPerKey[start0+int64(i)/n1] += data[i]
		}
		p := PerIndex{Inner: Sum{}, Keys: n0}
		st := p.Absorb(p.Zero(), Subset{
			Slab: layout.Slab{Start: []int64{start0, 0}, Count: []int64{n0, n1}},
			Data: data,
		}).(perIndexState)
		for k, w := range wantPerKey {
			got := st[k].(float64)
			if d := got - w; d > 1e-9 || d < -1e-9 {
				t.Fatalf("key %d: %g != %g", k, got, w)
			}
		}
	}
}

// Fuse computes several analyses in one pass; each must match its solo run.
func TestFuseEndToEnd(t *testing.T) {
	dims := []int64{8, 8, 8}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{8, 8, 8}}
	const n = 4
	slabs := splitSlab(whole, n)
	fuse := Fuse{Ops: []Op{Min{}, Max{}, Mean{}, Count{}}}
	if fuse.Name() != "fuse(min,max,mean,count)" {
		t.Fatalf("name = %q", fuse.Name())
	}
	tb := newTestbed(t, n, ncfile.Float64, dims)
	results := runObjectGetVara(t, tb, slabs,
		IO{Reduce: AllToOne, Params: adio.Params{CB: 512, Pipeline: true}}, fuse)
	for i, op := range fuse.Ops {
		got, want := op.Value(fuse.StateOf(results[0].State, i)), op.Value(truth(op, dims, slabs))
		if !almostEqual(got, want) {
			t.Fatalf("%s: fused %g, want %g", op.Name(), got, want)
		}
	}
	if results[0].Value != fuse.Ops[0].Value(fuse.StateOf(results[0].State, 0)) {
		t.Fatal("Value is not the first operator's value")
	}
	if st := fuse.StateOf(results[0].State, 3); st.(int64) != whole.NumElems() {
		t.Fatalf("count state = %v", st)
	}
	if fuse.StateBytes() != 8+8+16+8 {
		t.Fatalf("StateBytes = %d", fuse.StateBytes())
	}
}

func TestFuseEmpty(t *testing.T) {
	f := Fuse{}
	if f.Value(f.Zero()) != 0 || f.StateBytes() != 0 {
		t.Fatal("empty fuse misbehaves")
	}
}
