package repro

// Integration tests across the whole stack: datasets are written through the
// collective write path and analyzed with collective computing — everything
// a downstream user would chain together, verified end to end.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/wrf"
)

// TestWriteAnalyze: ranks collectively write a field they compute and run a
// collective-computing mean over it on the same handle; the mean must match
// the analytic value of what was written.
func TestWriteAnalyze(t *testing.T) {
	const n = 8
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 4})
	fs := pfs.New(env, pfs.Params{NumOSTs: 8, DefaultStripeSize: 1 << 14})
	var s ncfile.Schema
	id, err := s.AddVar("field", ncfile.Float64, []int64{n * 4, 32})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ncfile.Create(fs, "f", &s, pfs.NewMemBackend(0), 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	comm := w.Comm()

	// field[i][j] = i + j/100, mean over all (i, j) is analytic.
	rows := int64(n * 4)
	var want float64
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < 32; j++ {
			want += float64(i) + float64(j)/100
		}
	}
	want /= float64(rows * 32)

	var got float64
	errs := make([]error, n)
	w.Go(func(r *mpi.Rank) {
		me := r.Rank()
		cl := fs.Client(r.Proc(), me, nil)
		slab := layout.Slab{Start: []int64{int64(me * 4), 0}, Count: []int64{4, 32}}
		vals := make([]float64, 4*32)
		for k := range vals {
			i := slab.Start[0] + int64(k/32)
			j := int64(k % 32)
			vals[k] = float64(i) + float64(j)/100
		}
		// Phase 1: collective write.
		if err := ds.PutVaraAll(r, comm, cl, id, slab, vals, nil, adio.Params{CB: 1024}); err != nil {
			errs[me] = err
			return
		}
		comm.Barrier(r)
		// Phase 2: collective-computing mean over what was written.
		res, err := cc.ObjectGetVara(r, comm, cl, cc.IO{
			DS: ds, VarID: id, Slab: slab,
			Reduce: cc.AllToAll,
			Params: adio.Params{CB: 1024, Pipeline: true},
		}, cc.Mean{})
		if err != nil {
			errs[me] = err
			return
		}
		if res.Root {
			got = res.Value
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
}

// TestBackToBackCollectiveOps: many collective operations of different kinds
// on the same communicator in one program — tag isolation and plan reuse
// must keep them independent.
func TestBackToBackCollectiveOps(t *testing.T) {
	const n = 6
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 3})
	fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: 1 << 12})
	var s ncfile.Schema
	id, _ := s.AddVar("v", ncfile.Float32, []int64{n, 16, 16})
	ds, err := ncfile.SynthDataset(fs, "f", &s,
		[]ncfile.ValueFn{func(c []int64) float64 { return float64(c[0]*1000) + float64(c[1]*16+c[2]) }},
		4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	comm := w.Comm()
	sums := make([]float64, 3)
	maxs := make([]float64, 3)
	errs := make([]error, n)
	w.Go(func(r *mpi.Rank) {
		me := r.Rank()
		cl := fs.Client(r.Proc(), me, nil)
		slab := layout.Slab{Start: []int64{int64(me), 0, 0}, Count: []int64{1, 16, 16}}
		for round := 0; round < 3; round++ {
			io := cc.IO{DS: ds, VarID: id, Slab: slab,
				Reduce: cc.ReduceMode(round % 2),
				Params: adio.Params{CB: 512, Pipeline: round%2 == 0}}
			resSum, err := cc.ObjectGetVara(r, comm, cl, io, cc.Sum{})
			if err != nil {
				errs[me] = err
				return
			}
			resMax, err := cc.ObjectGetVara(r, comm, cl, io, cc.Max{})
			if err != nil {
				errs[me] = err
				return
			}
			if resSum.Root {
				sums[round] = resSum.Value
				maxs[round] = resMax.Value
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	// v[c] = t*1000 + row-major index; closed forms:
	var wantSum float64
	for ti := 0; ti < n; ti++ {
		wantSum += float64(ti)*1000*256 + 255*256/2
	}
	wantMax := float64((n-1)*1000 + 255)
	for round := 0; round < 3; round++ {
		if math.Abs(sums[round]-wantSum) > 1e-6 {
			t.Fatalf("round %d sum = %g, want %g", round, sums[round], wantSum)
		}
		if maxs[round] != wantMax {
			t.Fatalf("round %d max = %g, want %g", round, maxs[round], wantMax)
		}
	}
}

// TestDeterministicMakespans: identical programs produce identical virtual
// makespans — the property that makes every experiment reproducible.
func TestDeterministicMakespans(t *testing.T) {
	run := func() float64 {
		const n = 12
		env := sim.NewEnv()
		w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 4})
		fs := pfs.New(env, pfs.Params{NumOSTs: 8, DefaultStripeSize: 1 << 12})
		var s ncfile.Schema
		id, _ := s.AddVar("v", ncfile.Float64, []int64{n * 2, 64})
		ds, err := ncfile.SynthDataset(fs, "f", &s,
			[]ncfile.ValueFn{func(c []int64) float64 { return float64(c[0] ^ c[1]) }}, 8, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		comm := w.Comm()
		cache := &adio.PlanCache{}
		w.Go(func(r *mpi.Rank) {
			slab := layout.Slab{Start: []int64{int64(r.Rank() * 2), 0}, Count: []int64{2, 64}}
			cl := fs.Client(r.Proc(), r.Rank(), nil)
			_, err := cc.ObjectGetVara(r, comm, cl, cc.IO{
				DS: ds, VarID: id, Slab: slab,
				Reduce:     cc.AllToAll,
				Params:     adio.Params{CB: 512, Pipeline: true, PlanCache: cache},
				SecPerElem: 1e-8,
			}, cc.Variance{})
			if err != nil {
				t.Error(err)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return env.Now()
	}
	a, b, c := run(), run(), run()
	if a != b || b != c {
		t.Fatalf("makespans differ across identical runs: %v %v %v", a, b, c)
	}
}

// TestProductionLayoutUnchanged pins where the production datasets put their
// variables: offsets and file sizes as they were when the format still wrote
// a header into the first page. The page stays reserved, so every variable
// keeps its offset — and with it the stripes and OSTs each read is charged
// to, which every virtual number in the goldens depends on.
func TestProductionLayoutUnchanged(t *testing.T) {
	fs := pfs.New(sim.NewEnv(), pfs.Params{})
	type layoutOf struct {
		name    string
		offsets []int64
		size    int64
	}
	var got []layoutOf
	add := func(name string, ds *ncfile.Dataset, err error, ids ...int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l := layoutOf{name: name, size: ds.File().Size()}
		for _, id := range ids {
			v, err := ds.Var(id)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			l.offsets = append(l.offsets, v.Offset)
		}
		got = append(got, l)
	}
	for _, dims := range [][]int64{{204800, 1024, 1024}, {256, 128, 128}, {2048, 128, 128}} {
		ds, id, err := climate.NewDataset3D(fs, dims, 40, 4<<20)
		add(fmt.Sprint("climate3d", dims), ds, err, id)
	}
	for _, dims := range [][]int64{climate.Paper4DDims(), {64, 8, 1024, 1024}, {8, 4, 256, 256}} {
		ds, id, err := climate.NewDataset4D(fs, dims, 40, 4<<20)
		add(fmt.Sprint("climate4d", dims), ds, err, id)
	}
	w, err := wrf.NewDataset(fs, wrf.DefaultStorm(96, 1024, 1024), 40, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	add("wrf", w.DS, nil, w.SLPVar, w.WindVar)
	// A one-variable mem schema sized by its own Layout, as bench's
	// mem_write_read builds it.
	var s ncfile.Schema
	id, err := s.AddVar("v", ncfile.Float32, []int64{1024, 256, 256})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ncfile.Create(fs, "mem", &s, pfs.NewMemBackend(s.Layout()), 40, 4<<20, 0)
	add("mem", ds, err, id)

	want := []layoutOf{
		{"climate3d[204800 1024 1024]", []int64{4096}, 858993463296},
		{"climate3d[256 128 128]", []int64{4096}, 16781312},
		{"climate3d[2048 128 128]", []int64{4096}, 134221824},
		{"climate4d[1024 1024 100 1024]", []int64{4096}, 429496733696},
		{"climate4d[64 8 1024 1024]", []int64{4096}, 2147487744},
		{"climate4d[8 4 256 256]", []int64{4096}, 8392704},
		{"wrf", []int64{4096, 402657280}, 805310464},
		{"mem", []int64{4096}, 268439552},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("production layouts moved:\n got %v\nwant %v", got, want)
	}
}
