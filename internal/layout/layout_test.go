package layout

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestValidate(t *testing.T) {
	dims := []int64{4, 5}
	cases := []struct {
		s  Slab
		ok bool
	}{
		{Slab{[]int64{0, 0}, []int64{4, 5}}, true},
		{Slab{[]int64{3, 4}, []int64{1, 1}}, true},
		{Slab{[]int64{0, 0}, []int64{5, 5}}, false},
		{Slab{[]int64{4, 0}, []int64{1, 1}}, false},
		{Slab{[]int64{-1, 0}, []int64{1, 1}}, false},
		{Slab{[]int64{0}, []int64{1}}, false},
		{Slab{[]int64{0, 0}, []int64{0, 5}}, true}, // empty is valid
	}
	for i, c := range cases {
		err := Validate(dims, c.s)
		if (err == nil) != c.ok {
			t.Errorf("case %d %v: err = %v, want ok=%v", i, c.s, err, c.ok)
		}
	}
	if Validate([]int64{0}, Slab{[]int64{0}, []int64{0}}) == nil {
		t.Error("zero-size dim accepted")
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	dims := []int64{3, 4, 5}
	for off := int64(0); off < NumElemsOf(dims); off++ {
		c := OffsetToCoords(dims, off, nil)
		if got := CoordsToOffset(dims, c); got != off {
			t.Fatalf("round trip %d -> %v -> %d", off, c, got)
		}
	}
}

func TestFlattenContiguous(t *testing.T) {
	dims := []int64{4, 8}
	runs := Flatten(dims, Slab{[]int64{1, 0}, []int64{2, 8}})
	want := []Run{{8, 16}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v (full rows coalesce)", runs, want)
	}
}

func TestFlattenWholeArray(t *testing.T) {
	dims := []int64{4, 8, 2}
	runs := Flatten(dims, Slab{[]int64{0, 0, 0}, []int64{4, 8, 2}})
	if !reflect.DeepEqual(runs, []Run{{0, 64}}) {
		t.Errorf("whole array = %v, want single run of 64", runs)
	}
}

func TestFlattenStrided(t *testing.T) {
	dims := []int64{4, 8}
	runs := Flatten(dims, Slab{[]int64{1, 2}, []int64{2, 3}})
	want := []Run{{10, 3}, {18, 3}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
}

func TestFlatten1D(t *testing.T) {
	runs := Flatten([]int64{100}, Slab{[]int64{25}, []int64{50}})
	if !reflect.DeepEqual(runs, []Run{{25, 50}}) {
		t.Errorf("runs = %v", runs)
	}
}

func TestFlattenEmpty(t *testing.T) {
	if runs := Flatten([]int64{4, 4}, Slab{[]int64{0, 0}, []int64{0, 4}}); runs != nil {
		t.Errorf("empty slab gave %v", runs)
	}
}

func TestFlattenInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Flatten on invalid slab did not panic")
		}
	}()
	Flatten([]int64{2}, Slab{[]int64{0}, []int64{3}})
}

// expand enumerates every element offset in runs.
func expand(runs []Run) []int64 {
	var out []int64
	for _, r := range runs {
		for i := int64(0); i < r.Length; i++ {
			out = append(out, r.Offset+i)
		}
	}
	return out
}

// enumerate lists the offsets of every element of the slab, in order.
func enumerate(dims []int64, s Slab) []int64 {
	var out []int64
	n := s.NumElems()
	if n == 0 {
		return nil
	}
	idx := append([]int64(nil), s.Start...)
	for {
		out = append(out, CoordsToOffset(dims, idx))
		d := len(dims) - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < s.Start[d]+s.Count[d] {
				break
			}
			idx[d] = s.Start[d]
		}
		if d < 0 {
			break
		}
	}
	return out
}

func randomSlab(rng *rand.Rand, maxND int) ([]int64, Slab) {
	nd := 1 + rng.Intn(maxND)
	dims := make([]int64, nd)
	s := Slab{Start: make([]int64, nd), Count: make([]int64, nd)}
	for d := 0; d < nd; d++ {
		dims[d] = 1 + int64(rng.Intn(7))
		s.Start[d] = int64(rng.Intn(int(dims[d])))
		s.Count[d] = int64(rng.Intn(int(dims[d]-s.Start[d]) + 1))
	}
	return dims, s
}

// Property: Flatten covers exactly the slab's elements, in order, with
// sorted, disjoint, maximally coalesced runs.
func TestFlattenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		dims, s := randomSlab(rng, 4)
		runs := Flatten(dims, s)
		if got, want := TotalLength(runs), s.NumElems(); got != want {
			t.Fatalf("dims %v slab %v: total %d, want %d", dims, s, got, want)
		}
		for i := 1; i < len(runs); i++ {
			if runs[i].Offset <= runs[i-1].End() {
				t.Fatalf("dims %v slab %v: runs not sorted/disjoint/coalesced: %v", dims, s, runs)
			}
		}
		if want := enumerate(dims, s); !reflect.DeepEqual(expand(runs), want) {
			t.Fatalf("dims %v slab %v: expand mismatch\nruns %v\ngot  %v\nwant %v",
				dims, s, runs, expand(runs), want)
		}
	}
}

func TestCoalesce(t *testing.T) {
	in := []Run{{10, 5}, {0, 5}, {5, 5}, {20, 2}, {21, 4}}
	got := Coalesce(in)
	want := []Run{{0, 15}, {20, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Coalesce = %v, want %v", got, want)
	}
	if Coalesce(nil) != nil {
		t.Error("Coalesce(nil) != nil")
	}
}

func TestIntersect(t *testing.T) {
	r := Run{10, 10} // [10,20)
	cases := []struct {
		lo, hi int64
		want   Run
		ok     bool
	}{
		{0, 5, Run{}, false},
		{20, 30, Run{}, false},
		{0, 15, Run{10, 5}, true},
		{15, 30, Run{15, 5}, true},
		{12, 18, Run{12, 6}, true},
		{0, 100, Run{10, 10}, true},
		{15, 15, Run{}, false},
	}
	for i, c := range cases {
		got, ok := Intersect(r, c.lo, c.hi)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("case %d [%d,%d): got %v,%v want %v,%v", i, c.lo, c.hi, got, ok, c.want, c.ok)
		}
	}
}

func TestWindow(t *testing.T) {
	runs := []Run{{0, 10}, {20, 10}, {40, 10}}
	got := Window(runs, 5, 45)
	want := []Run{{5, 5}, {20, 10}, {40, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Window = %v, want %v", got, want)
	}
	if w := Window(runs, 10, 20); w != nil {
		t.Errorf("gap window = %v, want nil", w)
	}
}

func TestBounds(t *testing.T) {
	lo, hi := Bounds([]Run{{5, 5}, {20, 3}})
	if lo != 5 || hi != 23 {
		t.Errorf("Bounds = %d,%d want 5,23", lo, hi)
	}
	if lo, hi := Bounds(nil); lo != 0 || hi != 0 {
		t.Errorf("Bounds(nil) = %d,%d", lo, hi)
	}
}

func TestRunToSlabsSimple(t *testing.T) {
	dims := []int64{4, 8}
	// Run spanning the tail of row 0 and head of row 1.
	slabs := RunToSlabs(dims, Run{6, 4}, false)
	want := []Slab{
		{[]int64{0, 6}, []int64{1, 2}},
		{[]int64{1, 0}, []int64{1, 2}},
	}
	if !reflect.DeepEqual(slabs, want) {
		t.Errorf("slabs = %v, want %v", slabs, want)
	}
}

func TestRunToSlabsCoalesceRows(t *testing.T) {
	dims := []int64{4, 8}
	// Two full rows merge into one rectangle when coalescing.
	slabs := RunToSlabs(dims, Run{8, 16}, true)
	want := []Slab{{[]int64{1, 0}, []int64{2, 8}}}
	if !reflect.DeepEqual(slabs, want) {
		t.Errorf("slabs = %v, want %v", slabs, want)
	}
	// Without coalescing: one slab per row.
	if got := RunToSlabs(dims, Run{8, 16}, false); len(got) != 2 {
		t.Errorf("uncoalesced = %v, want 2 slabs", got)
	}
}

// Property: RunToSlabs is an exact inverse — flattening the slabs yields the
// original run, and the slabs tile it without overlap.
func TestRunToSlabsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		nd := 1 + rng.Intn(4)
		dims := make([]int64, nd)
		total := int64(1)
		for d := range dims {
			dims[d] = 1 + int64(rng.Intn(6))
			total *= dims[d]
		}
		off := int64(rng.Intn(int(total)))
		length := 1 + int64(rng.Intn(int(total-off)))
		run := Run{off, length}
		for _, coalesce := range []bool{false, true} {
			slabs := RunToSlabs(dims, run, coalesce)
			var n int64
			for _, s := range slabs {
				if err := Validate(dims, s); err != nil {
					t.Fatalf("dims %v run %v: invalid slab %v: %v", dims, run, s, err)
				}
				n += s.NumElems()
			}
			if n != length {
				t.Fatalf("dims %v run %v coalesce=%v: slabs cover %d, want %d",
					dims, run, coalesce, n, length)
			}
			back := SlabsToRuns(dims, slabs)
			if !reflect.DeepEqual(back, []Run{run}) {
				t.Fatalf("dims %v run %v coalesce=%v: round trip %v", dims, run, coalesce, back)
			}
		}
	}
}

// oracleRunToSlabs is the logical construction as first written: a freshly
// allocated slab per row of the run, then one merge pass over the list, each
// slab merged into the last one kept. SlabScratch must return its slabs.
func oracleRunToSlabs(dims []int64, r Run, coalesce bool) []Slab {
	nd := len(dims)
	if nd == 0 || r.Length <= 0 {
		return nil
	}
	rowLen := dims[nd-1]
	var slabs []Slab
	off, remaining := r.Offset, r.Length
	coords := make([]int64, nd)
	for remaining > 0 {
		OffsetToCoords(dims, off, coords)
		span := rowLen - coords[nd-1]
		if span > remaining {
			span = remaining
		}
		s := Slab{Start: append([]int64(nil), coords...), Count: make([]int64, nd)}
		for d := range s.Count {
			s.Count[d] = 1
		}
		s.Count[nd-1] = span
		slabs = append(slabs, s)
		off += span
		remaining -= span
	}
	if !coalesce || len(slabs) < 2 {
		return slabs
	}
	out := slabs[:1]
	for _, s := range slabs[1:] {
		if !tryMerge(&out[len(out)-1], s) {
			out = append(out, s)
		}
	}
	return out
}

// Property: one SlabScratch, reused across random runs over 1–5 dims with
// and without coalescing, returns the oracle's slabs slab for slab, and no
// two of them share storage.
func TestSlabScratchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var sc SlabScratch
	for iter := 0; iter < 3000; iter++ {
		nd := 1 + rng.Intn(5)
		dims := make([]int64, nd)
		for d := range dims {
			dims[d] = 1 + int64(rng.Intn(5))
		}
		total := NumElemsOf(dims)
		off := rng.Int63n(total)
		run := Run{off, 1 + rng.Int63n(total-off)}
		for _, coalesce := range []bool{false, true} {
			want := oracleRunToSlabs(dims, run, coalesce)
			got := sc.RunToSlabs(dims, run, coalesce)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dims %v run %v coalesce=%v: slabs %v, want %v", dims, run, coalesce, got, want)
			}
			// Every value written into the slabs must read back.
			for i, s := range got {
				for d := range dims {
					s.Start[d], s.Count[d] = int64(2*nd*i+d), int64(2*nd*i+nd+d)
				}
			}
			for i, s := range got {
				for d := range dims {
					if s.Start[d] != int64(2*nd*i+d) || s.Count[d] != int64(2*nd*i+nd+d) {
						t.Fatalf("dims %v run %v coalesce=%v: slab %d shares storage with another", dims, run, coalesce, i)
					}
				}
			}
		}
	}
}

// A warm SlabScratch allocates nothing, however many rows the run has.
func TestSlabScratchZeroAlloc(t *testing.T) {
	dims := []int64{16, 30, 40, 50}
	runs := []Run{{Offset: 1234, Length: 50_000}, {Offset: 7, Length: 93}, {Offset: 0, Length: NumElemsOf(dims)}}
	var sc SlabScratch
	for _, coalesce := range []bool{false, true} {
		for _, r := range runs {
			sc.RunToSlabs(dims, r, coalesce) // warm-up grows the scratch
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, r := range runs {
				if len(sc.RunToSlabs(dims, r, coalesce)) == 0 {
					t.Fatal("no slabs")
				}
			}
		})
		if allocs != 0 {
			t.Errorf("coalesce=%v: %v allocs per warm pass, want 0", coalesce, allocs)
		}
	}
}

// Coalescing must never produce more slabs, and usually fewer for aligned runs.
func TestCoalesceSlabsReduces(t *testing.T) {
	dims := []int64{8, 8}
	run := Run{0, 64}
	plain := RunToSlabs(dims, run, false)
	merged := RunToSlabs(dims, run, true)
	if len(merged) != 1 || len(plain) != 8 {
		t.Errorf("plain %d slabs, merged %d; want 8 and 1", len(plain), len(merged))
	}
	if MetadataBytes(merged) >= MetadataBytes(plain) {
		t.Error("coalescing did not reduce metadata size")
	}
}

func TestTryMergeRejectsDiagonal(t *testing.T) {
	a := Slab{[]int64{0, 0}, []int64{1, 4}}
	b := Slab{[]int64{1, 4}, []int64{1, 4}} // adjacent in two dims: no merge
	if tryMerge(&a, b) {
		t.Error("merged slabs differing in two dimensions")
	}
	c := Slab{[]int64{0, 0}, []int64{1, 4}}
	if tryMerge(&c, c.Clone()) {
		t.Error("merged identical slabs (would double-count)")
	}
}

func TestMetadataBytes(t *testing.T) {
	slabs := []Slab{
		{[]int64{0, 0}, []int64{1, 4}},
		{[]int64{1, 0}, []int64{1, 4}},
	}
	if got := MetadataBytes(slabs); got != 2*(8+32) {
		t.Errorf("MetadataBytes = %d, want 80", got)
	}
}

func TestSlabClone(t *testing.T) {
	s := Slab{[]int64{1, 2}, []int64{3, 4}}
	c := s.Clone()
	c.Start[0] = 99
	if s.Start[0] != 1 {
		t.Error("Clone aliases Start")
	}
}

func BenchmarkFlatten4D(b *testing.B) {
	dims := []int64{1024, 100, 1024, 1024}
	s := Slab{Start: []int64{10, 5, 100, 100}, Count: []int64{72, 10, 100, 100}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runs := Flatten(dims, s)
		if len(runs) == 0 {
			b.Fatal("no runs")
		}
	}
}

func BenchmarkRunToSlabs(b *testing.B) {
	dims := []int64{1024, 100, 1024, 1024}
	run := Run{Offset: 123456789, Length: 1 << 20}
	var sc SlabScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.RunToSlabs(dims, run, true)
	}
}
