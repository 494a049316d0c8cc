package ncfile

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/adio"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func TestTypeSizes(t *testing.T) {
	cases := map[Type]int64{Float32: 4, Float64: 8, Int32: 4, Int64: 8}
	for ty, want := range cases {
		if ty.Size() != want {
			t.Errorf("%v.Size() = %d, want %d", ty, ty.Size(), want)
		}
	}
	if Float32.String() != "float32" || Type(99).String() != "invalid" {
		t.Error("Type.String broken")
	}
}

func TestSchemaValidation(t *testing.T) {
	var s Schema
	if _, err := s.AddVar("", Float32, []int64{4}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.AddVar("x", Float32, nil); err == nil {
		t.Error("no dims accepted")
	}
	if _, err := s.AddVar("x", Float32, []int64{0}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := s.AddVar("x", Float32, []int64{4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVar("x", Float64, []int64{4}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestSchemaLayoutAligned(t *testing.T) {
	var s Schema
	a, _ := s.AddVar("a", Float32, []int64{10})  // 40 bytes
	b, _ := s.AddVar("b", Float64, []int64{100}) // 800 bytes
	total := s.Layout()
	if s.vars[a].Offset != pageSize {
		t.Errorf("first variable at %d, want %d: the first page is reserved", s.vars[a].Offset, pageSize)
	}
	if s.vars[b].Offset%pageSize != 0 {
		t.Errorf("offset %d not page-aligned", s.vars[b].Offset)
	}
	if s.vars[b].Offset <= s.vars[a].Offset {
		t.Error("variables overlap")
	}
	if total < s.vars[b].Offset+800 {
		t.Errorf("total %d too small", total)
	}
}

func TestEncodeDecodeValues(t *testing.T) {
	vals := []float64{0, 1.5, -3.25, 1e6, -7}
	for _, ty := range []Type{Float32, Float64, Int32, Int64} {
		got := DecodeValues(ty, EncodeValues(ty, vals), nil)
		for i, v := range vals {
			want := v
			switch ty {
			case Int32, Int64:
				want = math.Trunc(v)
			}
			if got[i] != want {
				t.Errorf("%v: got[%d] = %g, want %g", ty, i, got[i], want)
			}
		}
	}
}

func TestDecodeValuesReuseBuffer(t *testing.T) {
	raw := EncodeValues(Float64, []float64{1, 2, 3})
	buf := make([]float64, 8)
	out := DecodeValues(Float64, raw, buf)
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Fatalf("out = %v", out)
	}
	if &out[0] != &buf[0] {
		t.Error("did not reuse caller buffer")
	}
}

type testEnv struct {
	env *sim.Env
	w   *mpi.World
	c   *mpi.Comm
	fs  *pfs.FS
}

func newTestEnv(n int) *testEnv {
	env := sim.NewEnv()
	return &testEnv{
		env: env,
		w:   mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 4}),
		fs:  pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: 1 << 12}),
	}
}

func TestByteRuns(t *testing.T) {
	te := newTestEnv(1)
	var s Schema
	id, _ := s.AddVar("v", Float64, []int64{4, 8})
	ds, err := Create(te.fs, "f", &s, pfs.NewMemBackend(0), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := ds.Var(id)
	runs, err := ds.ByteRuns(id, layout.Slab{Start: []int64{1, 2}, Count: []int64{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := []layout.Run{
		{Offset: v.Offset + 10*8, Length: 24},
		{Offset: v.Offset + 18*8, Length: 24},
	}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	if _, err := ds.ByteRuns(id, layout.Slab{Start: []int64{0, 0}, Count: []int64{5, 8}}); err == nil {
		t.Error("out-of-range slab accepted")
	}
	if _, err := ds.ByteRuns(99, layout.Slab{}); err == nil {
		t.Error("bad varid accepted")
	}
}

// Collective put + collective get across 4 ranks: each rank owns a quadrant;
// every value written must be read back by its owner.
func TestPutGetVaraAllQuadrants(t *testing.T) {
	te := newTestEnv(4)
	var s Schema
	id, _ := s.AddVar("grid", Float32, []int64{16, 16})
	ds, err := Create(te.fs, "f", &s, pfs.NewMemBackend(0), 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	te.c = te.w.Comm()
	quad := func(rank int) layout.Slab {
		return layout.Slab{
			Start: []int64{int64(rank / 2 * 8), int64(rank % 2 * 8)},
			Count: []int64{8, 8},
		}
	}
	val := func(rank, i int) float64 { return float64(rank*1000 + i) }
	got := make([][]float64, 4)
	te.w.Go(func(r *mpi.Rank) {
		me := r.Rank()
		cl := te.fs.Client(r.Proc(), me, nil)
		vals := make([]float64, 64)
		for i := range vals {
			vals[i] = val(me, i)
		}
		if err := ds.PutVaraAll(r, te.c, cl, id, quad(me), vals, nil, adio.Params{CB: 256}); err != nil {
			t.Error(err)
			return
		}
		g, err := ds.GetVaraAll(r, te.c, cl, id, quad(me), nil, adio.Params{CB: 256})
		if err != nil {
			t.Error(err)
			return
		}
		got[me] = g
	})
	if err := te.env.Run(); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		for i, g := range got[rank] {
			if g != val(rank, i) {
				t.Fatalf("rank %d elem %d = %g, want %g", rank, i, g, val(rank, i))
			}
		}
	}
}

// Independent and collective reads of the same random slab agree.
func TestIndependentMatchesCollective(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	te := newTestEnv(2)
	var s Schema
	id, _ := s.AddVar("v", Float64, []int64{10, 10, 10})
	ds, err := Create(te.fs, "f", &s, pfs.NewMemBackend(0), 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := te.w.Comm()
	slabs := make([]layout.Slab, 2)
	for i := range slabs {
		var st, ct [3]int64
		for d := 0; d < 3; d++ {
			st[d] = int64(rng.Intn(8))
			ct[d] = 1 + int64(rng.Intn(int(10-st[d])))
		}
		slabs[i] = layout.Slab{Start: st[:], Count: ct[:]}
	}
	var indep, coll [2][]float64
	te.w.Go(func(r *mpi.Rank) {
		me := r.Rank()
		cl := te.fs.Client(r.Proc(), me, nil)
		// Seed the file with known values: each rank writes half the planes.
		half := layout.Slab{Start: []int64{int64(me) * 5, 0, 0}, Count: []int64{5, 10, 10}}
		vals := make([]float64, half.NumElems())
		for i := range vals {
			vals[i] = float64(int64(me)*500+int64(i)) * 1.5
		}
		if err := ds.PutVaraAll(r, c, cl, id, half, vals, nil, adio.Params{CB: 512}); err != nil {
			t.Error(err)
		}
		var err error
		if coll[me], err = ds.GetVaraAll(r, c, cl, id, slabs[me], nil, adio.Params{CB: 512}); err != nil {
			t.Error(err)
		}
		if indep[me], err = ds.GetVara(cl, id, slabs[me], adio.Params{}); err != nil {
			t.Error(err)
		}
	})
	if err := te.env.Run(); err != nil {
		t.Fatal(err)
	}
	for me := 0; me < 2; me++ {
		if !reflect.DeepEqual(indep[me], coll[me]) {
			t.Fatalf("rank %d: independent != collective", me)
		}
		if int64(len(coll[me])) != slabs[me].NumElems() {
			t.Fatalf("rank %d: %d values for %d elems", me, len(coll[me]), slabs[me].NumElems())
		}
	}
}

func TestPutVaraSizeMismatch(t *testing.T) {
	te := newTestEnv(1)
	var s Schema
	id, _ := s.AddVar("v", Float32, []int64{4})
	ds, _ := Create(te.fs, "f", &s, pfs.NewMemBackend(0), 1, 0, 0)
	c := te.w.Comm()
	te.w.Go(func(r *mpi.Rank) {
		cl := te.fs.Client(r.Proc(), 0, nil)
		slab := layout.Slab{Start: []int64{0}, Count: []int64{4}}
		if err := ds.PutVaraAll(r, c, cl, id, slab, []float64{1, 2}, nil, adio.Params{}); err == nil {
			t.Error("size mismatch accepted")
		}
	})
	if err := te.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateEmptySchemaFails(t *testing.T) {
	te := newTestEnv(1)
	if _, err := Create(te.fs, "f", &Schema{}, pfs.NewMemBackend(0), 1, 0, 0); err == nil {
		t.Error("empty schema accepted")
	}
}

// TestPutVaraAllEncodesAsEncodeValues: the bytes PutVaraAll stores, encoded
// in blocks on the host workers, are EncodeValues' of the values, for every
// type, at GOMAXPROCS 1 and 4: each of two ranks writes half of a variable,
// over host.Grain elements (three whole blocks and a partial one) or under
// it (one partial block, inline).
func TestPutVaraAllEncodesAsEncodeValues(t *testing.T) {
	for _, ty := range []Type{Float32, Float64, Int32, Int64} {
		for _, half := range []int64{3*encodeBlock + 5, 37} {
			for _, procs := range []int{1, 4} {
				te := newTestEnv(2)
				var s Schema
				id, _ := s.AddVar("v", ty, []int64{2, half})
				mem := pfs.NewMemBackend(0)
				ds, _ := Create(te.fs, "f", &s, mem, 4, 0, 0)
				c := te.w.Comm()
				vals := make([]float64, 2*half)
				for i := range vals {
					vals[i] = float64(i)*1.1 - 7.3
				}
				te.w.Go(func(r *mpi.Rank) {
					me := int64(r.Rank())
					slab := layout.Slab{Start: []int64{me, 0}, Count: []int64{1, half}}
					if err := ds.PutVaraAll(r, c, te.fs.Client(r.Proc(), r.Rank(), nil), id, slab, vals[me*half:(me+1)*half], nil, adio.Params{CB: 1 << 16}); err != nil {
						t.Error(err)
					}
				})
				prev := runtime.GOMAXPROCS(procs)
				err := te.env.Run()
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				v, _ := ds.Var(id)
				if got, want := mem.Bytes()[v.Offset:v.Offset+v.Bytes()], EncodeValues(ty, vals); !bytes.Equal(got, want) {
					i := 0
					for got[i] == want[i] {
						i++
					}
					t.Fatalf("%v, %d elements a rank, GOMAXPROCS=%d: stored bytes differ from EncodeValues' first at element %d", ty, half, procs, int64(i)/ty.Size())
				}
			}
		}
	}
}
