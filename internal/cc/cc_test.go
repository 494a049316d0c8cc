package cc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adio"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// valueAt is the deterministic ground-truth content of test datasets.
func valueAt(coords []int64) float64 {
	var h int64 = 1469598103934665603
	for _, c := range coords {
		h ^= c
		h *= 1099511628211
	}
	return float64(h%1000) / 8
}

type testbed struct {
	env *sim.Env
	w   *mpi.World
	c   *mpi.Comm
	fs  *pfs.FS
	ds  *ncfile.Dataset
	id  int
}

// newTestbed builds an n-rank world over a dataset with the given dims,
// filled with valueAt.
func newTestbed(t *testing.T, n int, ty ncfile.Type, dims []int64) *testbed {
	t.Helper()
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 4})
	fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: 1 << 12})
	var s ncfile.Schema
	id, err := s.AddVar("v", ty, dims)
	if err != nil {
		t.Fatal(err)
	}
	mem := pfs.NewMemBackend(0)
	ds, err := ncfile.Create(fs, "data", &s, mem, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the variable directly in the backend.
	v, _ := ds.Var(id)
	total := v.NumElems()
	vals := make([]float64, total)
	coords := make([]int64, len(dims))
	for off := int64(0); off < total; off++ {
		layout.OffsetToCoords(dims, off, coords)
		vals[off] = valueAt(coords)
	}
	mem.WriteAt(ncfile.EncodeValues(ty, vals), v.Offset)
	return &testbed{env: env, w: w, c: w.Comm(), fs: fs, ds: ds, id: id}
}

// truth computes the expected final state sequentially.
func truth(op Op, dims []int64, slabs []layout.Slab) State {
	final := op.Zero()
	for _, slab := range slabs {
		vals := make([]float64, 0, slab.NumElems())
		coords := make([]int64, len(dims))
		for _, run := range layout.Flatten(dims, slab) {
			for off := run.Offset; off < run.End(); off++ {
				layout.OffsetToCoords(dims, off, coords)
				vals = append(vals, valueAt(coords))
			}
		}
		final = op.Merge(final, op.Absorb(op.Zero(), Subset{Slab: slab, Data: vals}))
	}
	return final
}

// splitSlab partitions a hyperslab among n ranks along its first splittable
// dimension (round-robin remainder to the front ranks).
func splitSlab(whole layout.Slab, n int) []layout.Slab {
	out := make([]layout.Slab, n)
	dim := 0
	for d, c := range whole.Count {
		if c >= int64(n) {
			dim = d
			break
		}
	}
	per := whole.Count[dim] / int64(n)
	rem := whole.Count[dim] % int64(n)
	pos := whole.Start[dim]
	for i := 0; i < n; i++ {
		c := per
		if int64(i) < rem {
			c++
		}
		s := whole.Clone()
		s.Start[dim] = pos
		s.Count[dim] = c
		out[i] = s
		pos += c
	}
	return out
}

// runObjectGetVara executes the object I/O on all ranks.
func runObjectGetVara(t testing.TB, tb *testbed, slabs []layout.Slab, io IO, op Op) []Result {
	t.Helper()
	results := make([]Result, tb.w.Size())
	errs := make([]error, tb.w.Size())
	tb.w.Go(func(r *mpi.Rank) {
		cl := tb.fs.Client(r.Proc(), r.Rank(), nil)
		myIO := io
		myIO.DS = tb.ds
		myIO.VarID = tb.id
		myIO.Slab = slabs[r.Rank()]
		results[r.Rank()], errs[r.Rank()] = ObjectGetVara(r, tb.c, cl, myIO, op)
	})
	if err := tb.env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return results
}

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// The central invariant: collective computing (both reduce modes, both
// pipelines) and the traditional baseline all agree with sequential truth,
// for every built-in operator.
func TestAllOpsAllModesMatchTruth(t *testing.T) {
	dims := []int64{8, 6, 10}
	whole := layout.Slab{Start: []int64{1, 0, 2}, Count: []int64{6, 6, 7}}
	const n = 4
	slabs := splitSlab(whole, n)
	ops := []Op{Sum{}, Count{}, Min{}, Max{}, Mean{}, MinLoc{}, MaxLoc{},
		Histogram{Lo: 0, Hi: 125, Bins: 10}}
	for _, op := range ops {
		want := op.Value(truth(op, dims, slabs))
		type cfg struct {
			name string
			io   IO
		}
		cfgs := []cfg{
			{"traditional", IO{Block: true, Params: adio.Params{CB: 512}}},
			{"cc-all2one", IO{Reduce: AllToOne, Params: adio.Params{CB: 512}}},
			{"cc-all2all", IO{Reduce: AllToAll, Params: adio.Params{CB: 512}}},
			{"cc-all2one-pipe", IO{Reduce: AllToOne, Params: adio.Params{CB: 512, Pipeline: true}}},
			{"cc-all2all-pipe", IO{Reduce: AllToAll, Params: adio.Params{CB: 512, Pipeline: true}}},
			{"independent", IO{Mode: Independent}},
		}
		for _, cf := range cfgs {
			tb := newTestbed(t, n, ncfile.Float64, dims)
			results := runObjectGetVara(t, tb, slabs, cf.io, op)
			for rank, res := range results {
				if !almostEqual(res.Value, want) {
					t.Fatalf("%s/%s rank %d: value %g, want %g", op.Name(), cf.name, rank, res.Value, want)
				}
			}
			if !results[0].Root {
				t.Fatalf("%s/%s: rank 0 not marked root", op.Name(), cf.name)
			}
		}
	}
}

// The logical map must reconstruct exact coordinates: MinLoc's answer
// matches a brute-force scan.
func TestMinLocCoordinatesExact(t *testing.T) {
	dims := []int64{5, 9, 7}
	whole := layout.Slab{Start: []int64{0, 1, 1}, Count: []int64{5, 7, 5}}
	const n = 3
	slabs := splitSlab(whole, n)
	want := truth(MinLoc{}, dims, slabs).(Loc)

	for _, mode := range []ReduceMode{AllToOne, AllToAll} {
		tb := newTestbed(t, n, ncfile.Float32, dims)
		results := runObjectGetVara(t, tb, slabs,
			IO{Reduce: mode, Params: adio.Params{CB: 256}}, MinLoc{})
		got := results[0].State.(Loc)
		if !got.Valid || got.Val != want.Val || !reflect.DeepEqual(got.Coords, want.Coords) {
			t.Fatalf("mode %d: got %+v, want %+v", mode, got, want)
		}
	}
}

// Random fuzzing across world sizes, dims, types, slabs, ops and modes.
func TestRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ops := []Op{Sum{}, Min{}, MaxLoc{}, Mean{}}
	for iter := 0; iter < 12; iter++ {
		n := 2 + rng.Intn(5)
		nd := 2 + rng.Intn(2)
		dims := make([]int64, nd)
		for d := range dims {
			dims[d] = int64(4 + rng.Intn(8))
		}
		whole := layout.Slab{Start: make([]int64, nd), Count: make([]int64, nd)}
		for d := range dims {
			whole.Start[d] = int64(rng.Intn(int(dims[d] / 2)))
			whole.Count[d] = 1 + int64(rng.Intn(int(dims[d]-whole.Start[d])))
		}
		if whole.Count[0] < int64(n) {
			whole.Start[0], whole.Count[0] = 0, dims[0] // ensure splittable
		}
		slabs := splitSlab(whole, n)
		op := ops[rng.Intn(len(ops))]
		ty := []ncfile.Type{ncfile.Float32, ncfile.Float64}[rng.Intn(2)]
		mode := []ReduceMode{AllToOne, AllToAll}[rng.Intn(2)]
		cb := int64(128 + rng.Intn(2048))

		want := op.Value(truth(op, dims, slabs))
		tb := newTestbed(t, n, ty, dims)
		results := runObjectGetVara(t, tb, slabs,
			IO{Reduce: mode, Params: adio.Params{CB: cb, Pipeline: rng.Intn(2) == 1}}, op)
		if !almostEqual(results[n-1].Value, want) {
			t.Fatalf("iter %d (%s, n=%d, mode=%d, cb=%d): got %g, want %g",
				iter, op.Name(), n, mode, cb, results[n-1].Value, want)
		}

		tb2 := newTestbed(t, n, ty, dims)
		trad := runObjectGetVara(t, tb2, slabs, IO{Block: true, Params: adio.Params{CB: cb}}, op)
		if !almostEqual(trad[0].Value, want) {
			t.Fatalf("iter %d traditional: got %g, want %g", iter, trad[0].Value, want)
		}
	}
}

// CC must shuffle far fewer bytes than the raw data it maps.
func TestShuffleVolumeReduced(t *testing.T) {
	dims := []int64{16, 16, 16}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{16, 16, 16}}
	const n = 4
	slabs := splitSlab(whole, n)
	stats := &Stats{}
	tb := newTestbed(t, n, ncfile.Float64, dims)
	runObjectGetVara(t, tb, slabs,
		IO{Reduce: AllToAll, Params: adio.Params{CB: 2048}, Stats: stats}, Sum{})
	if stats.RawBytes == 0 || stats.ShuffleBytes == 0 {
		t.Fatalf("stats not collected: %+v", stats)
	}
	if stats.ShuffleBytes*4 > stats.RawBytes {
		t.Fatalf("shuffle %d bytes vs raw %d: reduction too small", stats.ShuffleBytes, stats.RawBytes)
	}
	if stats.MapElements != whole.NumElems() {
		t.Fatalf("mapped %d elements, want %d", stats.MapElements, whole.NumElems())
	}
	if stats.IntermediateRecords == 0 || stats.Subsets == 0 || stats.MetadataBytes == 0 {
		t.Fatalf("construction stats empty: %+v", stats)
	}
}

// Disabling subset coalescing must increase metadata volume.
func TestNoCoalesceIncreasesMetadata(t *testing.T) {
	dims := []int64{32, 32}
	whole := layout.Slab{Start: []int64{0, 0}, Count: []int64{32, 32}}
	const n = 2
	slabs := splitSlab(whole, n)
	run := func(noCoalesce bool) *Stats {
		stats := &Stats{}
		tb := newTestbed(t, n, ncfile.Float64, dims)
		runObjectGetVara(t, tb, slabs,
			IO{Reduce: AllToOne, NoCoalesce: noCoalesce, Params: adio.Params{CB: 4096}, Stats: stats}, Sum{})
		return stats
	}
	with, without := run(false), run(true)
	if without.MetadataBytes <= with.MetadataBytes {
		t.Fatalf("NoCoalesce metadata %d not larger than coalesced %d",
			without.MetadataBytes, with.MetadataBytes)
	}
}

// With compute cost attached, CC must beat the traditional workflow (the
// paper's core claim) on an interleaved access pattern.
func TestCCFasterThanTraditional(t *testing.T) {
	dims := []int64{64, 32, 32}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{64, 32, 32}}
	const n = 8
	slabs := splitSlab(whole, n)
	timeOf := func(block bool) float64 {
		tb := newTestbed(t, n, ncfile.Float64, dims)
		runObjectGetVara(t, tb, slabs, IO{
			Block:      block,
			Reduce:     AllToAll,
			SecPerElem: 100e-9,
			Params:     adio.Params{CB: 16 << 10, Pipeline: true},
		}, Sum{})
		return tb.env.Now()
	}
	trad, ccTime := timeOf(true), timeOf(false)
	if ccTime >= trad {
		t.Fatalf("collective computing (%g) not faster than traditional (%g)", ccTime, trad)
	}
}

func TestOpByName(t *testing.T) {
	for _, name := range []string{"sum", "count", "min", "max", "mean", "minloc", "maxloc"} {
		op, err := OpByName(name)
		if err != nil || op.Name() != name {
			t.Errorf("OpByName(%q) = %v, %v", name, op, err)
		}
	}
	if _, err := OpByName("bogus"); err == nil {
		t.Error("bogus op accepted")
	}
}

func TestCoordsAtRowMajor(t *testing.T) {
	slab := layout.Slab{Start: []int64{2, 3}, Count: []int64{2, 2}}
	var got [][]int64
	for i := int64(0); i < slab.NumElems(); i++ {
		got = append(got, coordsAt(slab, i))
	}
	want := [][]int64{{2, 3}, {2, 4}, {3, 3}, {3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coords = %v, want %v", got, want)
	}
}

// TestOpsDoNotRetainSubset: the Subset contract. The runtime lends Absorb a
// Slab and Data held in its worker's scratch and overwrites both for the next
// subset. Each built-in operator folds a variable's subsets twice: once from
// fresh copies, and once from one reused buffer that is filled with garbage
// after every Absorb. The final states must be equal: value, MinLoc
// coordinates, PerIndex series and all.
func TestOpsDoNotRetainSubset(t *testing.T) {
	dims := []int64{4, 5, 6}
	nd := len(dims)
	vals := make([]float64, layout.NumElemsOf(dims))
	coords := make([]int64, nd)
	for e := range vals {
		vals[e] = valueAt(layout.OffsetToCoords(dims, int64(e), coords))
	}
	// The subsets of runs of random length that cover the variable, the
	// way the map cuts an aggregator's buffer.
	rng := rand.New(rand.NewSource(5))
	var subs []Subset
	for off := int64(0); off < int64(len(vals)); {
		n := min(1+rng.Int63n(40), int64(len(vals))-off)
		pos := off
		for _, s := range layout.RunToSlabs(dims, layout.Run{Offset: off, Length: n}, true) {
			subs = append(subs, Subset{Slab: s, Data: vals[pos : pos+s.NumElems()]})
			pos += s.NumElems()
		}
		off += n
	}

	window := layout.Slab{Start: []int64{1, 1, 2}, Count: []int64{2, 3, 3}}
	hist := Histogram{Lo: 0, Hi: 125, Bins: 9}
	minIdx := PerIndex{Inner: MinLoc{}, Keys: dims[0]}
	ops := []Op{Sum{}, Count{}, Min{}, Max{}, Mean{}, MinLoc{}, MaxLoc{}, Variance{}, hist,
		minIdx, WindowOp{Op: Max{}, Window: window}, Fuse{Ops: []Op{MinLoc{}, Mean{}, hist}}}
	for _, op := range ops {
		fresh, lent := op.Zero(), op.Zero()
		start, count, data := make([]int64, nd), make([]int64, nd), make([]float64, 0, len(vals))
		for _, sub := range subs {
			fresh = op.Absorb(fresh, Subset{Slab: sub.Slab.Clone(), Data: append([]float64(nil), sub.Data...)})

			copy(start, sub.Slab.Start)
			copy(count, sub.Slab.Count)
			data = append(data[:0], sub.Data...)
			lent = op.Absorb(lent, Subset{Slab: layout.Slab{Start: start, Count: count}, Data: data})
			for d := range start {
				start[d], count[d] = 1<<40, 3
			}
			for i := range data {
				data[i] = -1e300
			}
		}
		if !reflect.DeepEqual(fresh, lent) {
			t.Errorf("%s: state %v folded from lent subsets, want %v", op.Name(), lent, fresh)
		}
		if a, b := op.Value(fresh), op.Value(lent); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: value %v folded from lent subsets, want %v", op.Name(), b, a)
		}
		if loc, ok := fresh.(Loc); ok && len(loc.Coords) != nd {
			t.Errorf("%s: coordinates %v, want %d of them", op.Name(), loc.Coords, nd)
		}
		if op, ok := op.(PerIndex); ok && !reflect.DeepEqual(op.Series(fresh), op.Series(lent)) {
			t.Errorf("%s: series %v folded from lent subsets, want %v", op.Name(), op.Series(lent), op.Series(fresh))
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	h := Histogram{Lo: 0, Hi: 10, Bins: 5}
	st := h.Absorb(h.Zero(), Subset{Data: []float64{-5, 0, 9.99, 100}})
	counts := st.([]int64)
	if counts[0] != 2 || counts[4] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	merged := h.Merge(st, st).([]int64)
	if merged[0] != 4 {
		t.Fatalf("merge = %v", merged)
	}
}

// TestHistogramBinsOutOfRange: Histogram clamps in float before it
// converts, so every value lands in the same bin on every platform: past the
// range, infinities and values too large for an int included, in the end
// bins; NaN in the first, where amd64's conversion put it; and the edges of
// the range and of each bin where the width says.
func TestHistogramBinsOutOfRange(t *testing.T) {
	h := Histogram{Lo: 0, Hi: 1, Bins: 4}
	for _, c := range []struct {
		v   float64
		bin int
	}{
		{math.Inf(1), 3}, {1e300, 3}, {math.MaxFloat64, 3}, {1 << 63, 3}, {1, 3}, {1.5, 3},
		{math.Inf(-1), 0}, {-1e300, 0}, {-(1 << 63), 0}, {-0.5, 0}, {math.Copysign(0, -1), 0},
		{math.NaN(), 0}, {0, 0}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {math.Nextafter(1, 0), 3},
		{math.Nextafter(0.25, 0), 0},
	} {
		counts := h.Absorb(h.Zero(), Subset{Data: []float64{c.v}}).([]int64)
		want := make([]int64, h.Bins)
		want[c.bin] = 1
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("Histogram{0, 1, 4} of %v: %v, want %v", c.v, counts, want)
		}
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean{}.Value(Mean{}.Zero())) {
		t.Error("mean of nothing should be NaN")
	}
}

func TestValidationErrors(t *testing.T) {
	tb := newTestbed(t, 1, ncfile.Float64, []int64{4})
	tb.w.Go(func(r *mpi.Rank) {
		cl := tb.fs.Client(r.Proc(), 0, nil)
		if _, err := ObjectGetVara(r, tb.c, cl, IO{}, Sum{}); err == nil {
			t.Error("nil dataset accepted")
		}
		if _, err := ObjectGetVara(r, tb.c, cl, IO{DS: tb.ds, VarID: 9}, Sum{}); err == nil {
			t.Error("bad varid accepted")
		}
		if _, err := ObjectGetVara(r, tb.c, cl, IO{DS: tb.ds, Root: 5}, Sum{}); err == nil {
			t.Error("bad root accepted")
		}
		for _, spe := range []float64{-1e-8, math.NaN(), math.Inf(1)} {
			var st Stats
			io := IO{DS: tb.ds, SecPerElem: spe, Stats: &st}
			if _, err := ObjectGetVara(r, tb.c, cl, io, Sum{}); err == nil || st != (Stats{}) {
				t.Errorf("map cost %v: error %v, stats %+v", spe, err, st)
			}
			io.SecPerElem, io.Consumers = 0, []Consumer{{Op: Max{}, SecPerElem: spe}}
			if _, err := ObjectGetVara(r, tb.c, cl, io, Sum{}); err == nil {
				t.Errorf("consumer map cost %v accepted", spe)
			}
		}
	})
	if err := tb.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Non-default root must receive the state and everyone the value.
func TestNonZeroRoot(t *testing.T) {
	dims := []int64{12, 8}
	whole := layout.Slab{Start: []int64{0, 0}, Count: []int64{12, 8}}
	const n = 4
	slabs := splitSlab(whole, n)
	want := Sum{}.Value(truth(Sum{}, dims, slabs))
	for _, mode := range []ReduceMode{AllToOne, AllToAll} {
		tb := newTestbed(t, n, ncfile.Float64, dims)
		results := runObjectGetVara(t, tb, slabs,
			IO{Reduce: mode, Root: 2, Params: adio.Params{CB: 512}}, Sum{})
		for rank, res := range results {
			if !almostEqual(res.Value, want) {
				t.Fatalf("mode %d rank %d: %g != %g", mode, rank, res.Value, want)
			}
			if res.Root != (rank == 2) {
				t.Fatalf("mode %d rank %d: Root flag %v", mode, rank, res.Root)
			}
		}
		if results[2].State == nil {
			t.Fatalf("mode %d: root has no state", mode)
		}
	}
}

func BenchmarkObjectGetVaraSum(b *testing.B) {
	dims := []int64{32, 32, 32}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{32, 32, 32}}
	const n = 8
	slabs := splitSlab(whole, n)
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 4})
		fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: 1 << 14})
		var s ncfile.Schema
		id, _ := s.AddVar("v", ncfile.Float64, dims)
		ds, _ := ncfile.Create(fs, "data", &s, pfs.NewSynthBackend(1<<22, func(int64, []byte) {}), 4, 0, 0)
		c := w.Comm()
		w.Go(func(r *mpi.Rank) {
			cl := fs.Client(r.Proc(), r.Rank(), nil)
			_, err := ObjectGetVara(r, c, cl, IO{
				DS: ds, VarID: id, Slab: slabs[r.Rank()],
				Reduce: AllToAll, Params: adio.Params{CB: 32 << 10, Pipeline: true},
			}, Sum{})
			if err != nil {
				b.Error(err)
			}
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// Variance through the full pipeline matches a two-pass sequential variance.
func TestVarianceEndToEnd(t *testing.T) {
	dims := []int64{10, 8, 8}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{10, 8, 8}}
	const n = 5
	slabs := splitSlab(whole, n)

	// Two-pass ground truth.
	var vals []float64
	coords := make([]int64, 3)
	for _, slab := range slabs {
		for _, run := range layout.Flatten(dims, slab) {
			for off := run.Offset; off < run.End(); off++ {
				layout.OffsetToCoords(dims, off, coords)
				vals = append(vals, valueAt(coords))
			}
		}
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var want float64
	for _, v := range vals {
		want += (v - mean) * (v - mean)
	}
	want /= float64(len(vals))

	for _, mode := range []ReduceMode{AllToOne, AllToAll} {
		tb := newTestbed(t, n, ncfile.Float64, dims)
		results := runObjectGetVara(t, tb, slabs,
			IO{Reduce: mode, Params: adio.Params{CB: 512, Pipeline: true}}, Variance{})
		got := results[0].Value
		if d := math.Abs(got - want); d > 1e-9*want {
			t.Fatalf("mode %d: variance %g, want %g", mode, got, want)
		}
		st := results[0].State.(VarianceState)
		if st.N != whole.NumElems() {
			t.Fatalf("mode %d: N = %d, want %d", mode, st.N, whole.NumElems())
		}
	}
}

func TestVarianceMergeWithEmpty(t *testing.T) {
	v := Variance{}
	x := v.Absorb(v.Zero(), Subset{Data: []float64{1, 2, 3}})
	if got := v.Merge(x, v.Zero()); got.(VarianceState) != x.(VarianceState) {
		t.Fatal("merge with empty right changed state")
	}
	if got := v.Merge(v.Zero(), x); got.(VarianceState) != x.(VarianceState) {
		t.Fatal("merge with empty left changed state")
	}
	if !math.IsNaN(v.Value(v.Zero())) {
		t.Fatal("variance of nothing should be NaN")
	}
}

// Integer-typed variables decode correctly through the full pipeline.
func TestIntegerTypesEndToEnd(t *testing.T) {
	dims := []int64{6, 4, 4}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{6, 4, 4}}
	const n = 3
	slabs := splitSlab(whole, n)
	for _, ty := range []ncfile.Type{ncfile.Int32, ncfile.Int64} {
		// valueAt values are quantized to /8 steps; integer encoding truncates.
		var want float64
		coords := make([]int64, 3)
		for off := int64(0); off < layout.NumElemsOf(dims); off++ {
			layout.OffsetToCoords(dims, off, coords)
			want += math.Trunc(valueAt(coords))
		}
		tb := newTestbed(t, n, ty, dims)
		results := runObjectGetVara(t, tb, slabs,
			IO{Reduce: AllToAll, Params: adio.Params{CB: 256}}, Sum{})
		if !almostEqual(results[0].Value, want) {
			t.Fatalf("%v: sum %g, want %g", ty, results[0].Value, want)
		}
	}
}
