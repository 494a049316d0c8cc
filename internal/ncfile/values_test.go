package ncfile

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/adio"
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// mix is splitmix64: the test schemas and values are functions of a seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// awkwardValue is a value function whose results exercise every type's round
// trip: fractions no float32 holds, negatives (integer conversion truncates
// toward zero), and — for the floating types only, where the conversion is
// defined — magnitudes beyond float32's range.
func awkwardValue(seed uint64, t Type) ValueFn {
	return func(c []int64) float64 {
		h := seed
		for _, x := range c {
			h = mix(h ^ uint64(x))
		}
		v := (float64(h%200001) - 100000) / 7
		if (t == Float32 || t == Float64) && h>>40%13 == 0 {
			v *= 1e35
		}
		return v
	}
}

// randomSynth builds a synthetic dataset from seed: one to four variables of
// all four types and one to four dimensions, about one in four without a
// generator (a nil entry of the returned value functions).
func randomSynth(tb testing.TB, fs *pfs.FS, seed uint64) (*Dataset, []ValueFn) {
	tb.Helper()
	h := mix(seed)
	next := func(n int) int { h = mix(h); return int(h % uint64(n)) }
	var s Schema
	nv := 1 + next(4)
	fns := make([]ValueFn, nv)
	for i := 0; i < nv; i++ {
		ty := Type(next(4))
		dims := make([]int64, 1+next(4))
		for d := range dims {
			dims[d] = int64(1 + next(7))
		}
		if _, err := s.AddVar(string(rune('a'+i)), ty, dims); err != nil {
			tb.Fatal(err)
		}
		if next(4) != 0 {
			fns[i] = awkwardValue(mix(seed+uint64(i)), ty)
		}
	}
	ds, err := SynthDataset(fs, "fuzz", &s, fns, 1, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return ds, fns
}

// checkValuesMatchBytePath is the value path's contract: for the element run
// [first, first+n) of variable id, Values equals decoding the bytes the
// backend serves for the same elements, bit for bit. The two paths share the
// row walk, so the bytes are first held against a reference neither path
// touches: fn (nil = zeros) evaluated element by element and encoded by
// EncodeValues. The byte read lands in a dirty buffer, so it also fails if
// fill leaves any byte unwritten.
func checkValuesMatchBytePath(t *testing.T, ds *Dataset, fn ValueFn, id int, first, n int64) {
	t.Helper()
	v := &ds.vars[id]
	sz := v.Type.Size()
	ref := make([]float64, n)
	if fn != nil {
		coords := make([]int64, len(v.Dims))
		for i := range ref {
			ref[i] = fn(layout.OffsetToCoords(v.Dims, first+int64(i), coords))
		}
	}
	raw := bytes.Repeat([]byte{0xAA}, int(n*sz))
	ds.synth.fill(v.Offset+first*sz, raw)
	if !bytes.Equal(raw, EncodeValues(v.Type, ref)) {
		t.Fatalf("var %d (%v %v) [%d,+%d): served bytes differ from the encoded value function",
			id, v.Type, v.Dims, first, n)
	}
	want := DecodeValues(v.Type, raw, nil)
	got := ds.Values(id, []layout.Run{{Offset: first, Length: n}}, nil, nil)
	if len(got) != len(want) {
		t.Fatalf("var %d (%v %v) [%d,+%d): %d values, byte path has %d",
			id, v.Type, v.Dims, first, n, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("var %d (%v %v) element %d: value path %v (%#x), byte path %v (%#x)",
				id, v.Type, v.Dims, first+int64(i), got[i], math.Float64bits(got[i]),
				want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzSynthValuesMatchBytePath drives checkValuesMatchBytePath over random
// schemas and element runs that start and end mid-row. Its seed corpus runs
// under plain go test. It fails if Values drops a type's rounding step
// (awkwardValue produces values no float32 or integer holds) or the clipping
// of a run to the row it is in (runs start and end anywhere).
func FuzzSynthValuesMatchBytePath(f *testing.F) {
	for seed := uint64(0); seed < 48; seed++ {
		f.Add(seed, uint16(mix(seed)), uint16(mix(seed+1000)))
	}
	f.Fuzz(func(t *testing.T, seed uint64, a, b uint16) {
		ds, fns := randomSynth(t, pfs.New(sim.NewEnv(), pfs.Params{NumOSTs: 2}), seed)
		for id, fn := range fns {
			total := ds.vars[id].NumElems()
			first := int64(a) % total
			n := int64(b) % (total - first + 1)
			checkValuesMatchBytePath(t, ds, fn, id, first, n)
			checkValuesMatchBytePath(t, ds, fn, id, 0, total)
		}
		checkGetVaraMatchesBytePath(t, seed, uint64(a)<<16|uint64(b))
	})
}

// checkGetVaraMatchesBytePath is the same contract one layer up: on a
// generator-backed dataset GetVara, GetVaraAll and FoldVara over either
// protocol — which issue charge-only reads and generate their values —
// return what DecodeValues gives for the bytes the backend serves for the
// slab, bit for bit, FoldVara as the values its fold slot makes of the runs
// and bytes it is handed. Three
// ranks read a random slab each (any start and count per dimension, so rows
// are partial and a slab is many runs) of every variable of randomSynth(seed).
func checkGetVaraMatchesBytePath(t *testing.T, seed, pick uint64) {
	t.Helper()
	const n = 3
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 2})
	fs := pfs.New(env, pfs.Params{NumOSTs: 2, DefaultStripeSize: 64})
	ds, _ := randomSynth(t, fs, seed)
	c := w.Comm()
	h := mix(seed ^ pick)
	next := func(m int64) int64 { h = mix(h); return int64(h % uint64(m)) }
	slabs := make([][n]layout.Slab, len(ds.vars))
	for id := range ds.vars {
		for me := 0; me < n; me++ {
			dims := ds.vars[id].Dims
			sl := layout.Slab{Start: make([]int64, len(dims)), Count: make([]int64, len(dims))}
			for d, size := range dims {
				sl.Start[d] = next(size)
				sl.Count[d] = 1 + next(size-sl.Start[d])
			}
			slabs[id][me] = sl
		}
	}
	type reads struct{ indep, coll, foldIndep, foldColl []float64 }
	got := make([][n]reads, len(ds.vars))
	w.Go(func(r *mpi.Rank) {
		me := r.Rank()
		cl := fs.Client(r.Proc(), me, nil)
		p := adio.Params{CB: 96, SieveThreshold: 8, Pipeline: pick%2 == 0}
		for id := range ds.vars {
			var g reads
			var err error
			if g.indep, err = ds.GetVara(cl, id, slabs[id][me], p); err != nil {
				t.Error(err)
			}
			if g.coll, err = ds.GetVaraAll(r, c, cl, id, slabs[id][me], nil, p); err != nil {
				t.Error(err)
			}
			for _, independent := range []bool{false, true} {
				var vals []float64
				join, err := ds.FoldVara(r, c, cl, id, slabs[id][me], nil, p, independent,
					func(w *Worker, elemRuns []layout.Run, raw []byte) {
						vals = append(vals, ds.WorkerValues(w, id, elemRuns, raw)...)
					})
				if err != nil {
					t.Error(err)
				} else {
					join.Wait()
				}
				if independent {
					g.foldIndep = vals
				} else {
					g.foldColl = vals
				}
			}
			got[id][me] = g
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for id := range ds.vars {
		v := &ds.vars[id]
		for me := 0; me < n; me++ {
			runs, err := ds.ByteRuns(id, slabs[id][me])
			if err != nil {
				t.Fatal(err)
			}
			var raw []byte
			for _, run := range runs {
				b := bytes.Repeat([]byte{0xAA}, int(run.Length))
				ds.synth.fill(run.Offset, b)
				raw = append(raw, b...)
			}
			want := DecodeValues(v.Type, raw, nil)
			g := got[id][me]
			for name, vals := range map[string][]float64{"GetVara": g.indep, "GetVaraAll": g.coll,
				"FoldVara/independent": g.foldIndep, "FoldVara/collective": g.foldColl} {
				if len(vals) != len(want) {
					t.Fatalf("var %d (%v %v) slab %v: %s returned %d values, the bytes hold %d",
						id, v.Type, v.Dims, slabs[id][me], name, len(vals), len(want))
				}
				for i := range want {
					if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
						t.Fatalf("var %d (%v %v) slab %v: %s value %d is %v (%#x), the bytes decode to %v (%#x)",
							id, v.Type, v.Dims, slabs[id][me], name, i, vals[i], math.Float64bits(vals[i]),
							want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestSynthFillWritesEveryByte reads windows of a synthetic file into a
// buffer pre-filled with 0xAA and compares them with an image of the file
// built independently (EncodeValues of the value functions, zeros elsewhere).
// fill clears nothing up front, so every range no generator covers — the
// reserved page before the first variable, the padding between variables, a
// variable without a generator, the tail of the file and of the buffer — must
// be zeroed explicitly, and every generated byte written, across each
// boundary.
func TestSynthFillWritesEveryByte(t *testing.T) {
	var s Schema
	s.AddVar("a", Float32, []int64{3, 5})
	s.AddVar("hole", Int64, []int64{7})
	s.AddVar("c", Float64, []int64{2, 3, 4})
	fns := []ValueFn{awkwardValue(1, Float32), nil, awkwardValue(3, Float64)}
	fs := pfs.New(sim.NewEnv(), pfs.Params{NumOSTs: 2})
	ds, err := SynthDataset(fs, "img", &s, fns, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	size := ds.File().Size()
	image := make([]byte, size+64) // reads past the file's end yield zeros too
	for id, fn := range fns {
		if fn == nil {
			continue
		}
		v := &ds.vars[id]
		vals := make([]float64, v.NumElems())
		coords := make([]int64, len(v.Dims))
		for e := range vals {
			vals[e] = fn(layout.OffsetToCoords(v.Dims, int64(e), coords))
		}
		copy(image[v.Offset:], EncodeValues(v.Type, vals))
	}
	a, hole, c := &ds.vars[0], &ds.vars[1], &ds.vars[2]
	windows := [][2]int64{
		{0, size + 64},                               // everything, and past the end
		{a.Offset - 9, a.Offset + 10},                // reserved page into a, ending mid-element
		{a.Offset + 7, a.Offset + a.Bytes() + 5},     // mid-element start, into a's padding
		{a.Offset + a.Bytes() - 3, hole.Offset + 11}, // a, padding, the generator-less variable
		{hole.Offset + 3, c.Offset + 13},             // hole, padding, into c mid-element
		{c.Offset + c.Bytes() - 1, size + 17},        // c's last byte, padding, beyond the file
		{hole.Offset + 8, hole.Offset + 16},          // inside the hole only
		{a.Offset + a.Bytes() + 1, hole.Offset - 1},  // inside padding only
	}
	for _, w := range windows {
		got := bytes.Repeat([]byte{0xAA}, int(w[1]-w[0]))
		ds.synth.fill(w[0], got)
		if want := image[w[0]:w[1]]; !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("window [%d,%d): byte at file offset %d is %#x, want %#x",
						w[0], w[1], w[0]+int64(i), got[i], want[i])
				}
			}
		}
	}
}

// TestSynthValuesNilGeneratorZeros: a variable without a generator reads as
// zeros on the value path as it does on the byte path, also into a dirty
// scratch.
func TestSynthValuesNilGeneratorZeros(t *testing.T) {
	var s Schema
	id, _ := s.AddVar("z", Int32, []int64{3, 3})
	fs := pfs.New(sim.NewEnv(), pfs.Params{NumOSTs: 2})
	ds, err := SynthDataset(fs, "z", &s, []ValueFn{nil}, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dirty := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for i, v := range ds.Values(id, []layout.Run{{Offset: 2, Length: 5}}, nil, dirty) {
		if v != 0 {
			t.Fatalf("value %d = %v, want 0", i, v)
		}
	}
	if !ds.Synthetic() {
		t.Fatal("generator-backed dataset not reported synthetic")
	}
	mem, err := Create(fs, "m", &s, pfs.NewMemBackend(0), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Synthetic() {
		t.Fatal("mem-backed dataset reported synthetic")
	}
}

// TestZeroAllocSynthValues: once the caller's scratch and the dataset's
// coordinate scratch exist, producing values allocates nothing — no byte
// buffer, no decode buffer, no closure.
func TestZeroAllocSynthValues(t *testing.T) {
	var s Schema
	id, _ := s.AddVar("v", Float32, []int64{6, 9, 31})
	fs := pfs.New(sim.NewEnv(), pfs.Params{NumOSTs: 2})
	ds, err := SynthDatasetGen(fs, "za", &s, []Gen{rampGen{}}, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-row starts, many rows, two runs.
	runs := []layout.Run{{Offset: 17, Length: 1200}, {Offset: 1300, Length: 70}}
	scratch := ds.Values(id, runs, nil, nil) // warm-up
	if allocs := testing.AllocsPerRun(100, func() {
		scratch = ds.Values(id, runs, nil, scratch)
	}); allocs != 0 {
		t.Fatalf("steady-state Values: %v allocs per call, want 0", allocs)
	}
}

// TestSynthValuesUnitsMatchBytePath: a long request of many partial-row
// runs, longer than host.Grain elements many times over, gives the byte
// path's values bit for bit through Values, which fills it with the
// dataset's scratch, and through WorkerValues, which fills it with a
// worker's, at GOMAXPROCS 1 and 4 alike.
func TestSynthValuesUnitsMatchBytePath(t *testing.T) {
	var s Schema
	id, _ := s.AddVar("v", Float32, []int64{5, 300, 301})
	fs := pfs.New(sim.NewEnv(), pfs.Params{NumOSTs: 2})
	ds, err := SynthDataset(fs, "units", &s, []ValueFn{awkwardValue(9, Float32)}, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := &ds.vars[id]
	runs := layout.Flatten(v.Dims, layout.Slab{Start: []int64{1, 7, 3}, Count: []int64{4, 283, 296}})
	var raw []byte
	for _, run := range runs {
		b := make([]byte, run.Length*4)
		ds.synth.fill(v.Offset+run.Offset*4, b)
		raw = append(raw, b...)
	}
	want := DecodeValues(v.Type, raw, nil)
	if n := int64(len(want)); n < 4*host.Grain {
		t.Fatalf("%d elements: too few to span many rows and runs", n)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var w Worker
		got := map[string][]float64{
			"Values":       ds.Values(id, runs, nil, nil),
			"WorkerValues": ds.WorkerValues(&w, id, runs, nil),
		}
		runtime.GOMAXPROCS(prev)
		for name, vals := range got {
			for i := range want {
				if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
					t.Fatalf("GOMAXPROCS=%d: %s value %d is %v, the bytes decode to %v", procs, name, i, vals[i], want[i])
				}
			}
		}
	}
}

// rampGen is an allocation-free row generator.
type rampGen struct{}

func (rampGen) FillRow(c []int64, out []float64) {
	base := float64(c[0]*1000+c[1]) + 0.1
	for k := range out {
		out[k] = base + float64(c[len(c)-1]+int64(k))/3
	}
}
