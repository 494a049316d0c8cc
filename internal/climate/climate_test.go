package climate

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/adio"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/pfs"
	"repro/internal/sim"

	"repro/internal/fabric"
)

func TestSin01(t *testing.T) {
	cases := []struct{ x, want, tol float64 }{
		{0, 0, 0.01},
		{0.25, 1, 0.01},
		{0.5, 0, 0.01},
		{0.75, -1, 0.01},
		{1.25, 1, 0.01},  // periodicity
		{-0.75, 1, 0.01}, // negative wrap
	}
	for _, c := range cases {
		if got := sin01(c.x); math.Abs(got-c.want) > c.tol {
			t.Errorf("sin01(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestHashJitterDeterministicAndBounded(t *testing.T) {
	a := hashJitter([]int64{1, 2, 3})
	b := hashJitter([]int64{1, 2, 3})
	if a != b {
		t.Error("jitter not deterministic")
	}
	for i := int64(0); i < 1000; i++ {
		v := hashJitter([]int64{i, i * 7, i * 13})
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("jitter %g out of range", v)
		}
	}
}

func TestTemperatureFieldsPlausible(t *testing.T) {
	for i := int64(0); i < 500; i++ {
		// (Time, Lat, Level, Lon)
		c4 := []int64{i * 3 % 1024, i * 7 % 1024, i % 100, i * 11 % 1024}
		v := Temperature4D(c4)
		if v < -120 || v > 120 {
			t.Fatalf("Temperature4D(%v) = %g implausible", c4, v)
		}
		c3 := []int64{c4[0], c4[1], c4[3]}
		if v := Temperature3D(c3); v < -120 || v > 120 {
			t.Fatalf("Temperature3D(%v) = %g implausible", c3, v)
		}
	}
	// Poles colder than equator-side rows (latitudinal gradient).
	warm := Temperature4D([]int64{0, 0, 0, 0})
	cold := Temperature4D([]int64{0, 1000, 0, 0})
	if warm <= cold {
		t.Errorf("no latitudinal gradient: %g vs %g", warm, cold)
	}
	// Higher levels are colder (lapse rate).
	sfc := Temperature4D([]int64{0, 100, 0, 0})
	top := Temperature4D([]int64{0, 100, 99, 0})
	if sfc <= top {
		t.Errorf("no lapse rate: %g vs %g", sfc, top)
	}
}

func TestPaperDims(t *testing.T) {
	dims := Paper4DDims()
	sub := Paper4DSubset()
	if err := layout.Validate(dims, sub); err != nil {
		t.Fatalf("paper subset invalid: %v", err)
	}
	if sub.NumElems() != 720*10*100*100 {
		t.Fatalf("subset elems = %d", sub.NumElems())
	}
	var bytes int64 = 4
	for _, d := range dims {
		bytes *= d
	}
	if bytes < 400<<30 {
		t.Fatalf("dataset %d bytes, expected ~400 GB", bytes)
	}
}

func TestNewDatasetsReadBack(t *testing.T) {
	env := sim.NewEnv()
	w := mpi.NewWorld(env, 1, fabric.Params{})
	fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: 1 << 16})
	ds4, id4, err := NewDataset4D(fs, []int64{8, 4, 16, 16}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds3, id3, err := NewDataset3D(fs, []int64{8, 16, 16}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Go(func(r *mpi.Rank) {
		cl := fs.Client(r.Proc(), 0, nil)
		got4, err := ds4.GetVara(cl, id4,
			layout.Slab{Start: []int64{1, 1, 2, 3}, Count: []int64{2, 2, 2, 2}}, adio.Params{})
		if err != nil {
			t.Error(err)
			return
		}
		i := 0
		for t0 := int64(1); t0 < 3; t0++ {
			for z := int64(1); z < 3; z++ {
				for y := int64(2); y < 4; y++ {
					for x := int64(3); x < 5; x++ {
						want := float64(float32(Temperature4D([]int64{t0, z, y, x})))
						if got4[i] != want {
							t.Errorf("4d[%d] = %g, want %g", i, got4[i], want)
							return
						}
						i++
					}
				}
			}
		}
		got3, err := ds3.GetVara(cl, id3,
			layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{1, 1, 4}}, adio.Params{})
		if err != nil {
			t.Error(err)
			return
		}
		for x := int64(0); x < 4; x++ {
			want := float64(float32(Temperature3D([]int64{0, 0, x})))
			if got3[x] != want {
				t.Errorf("3d[%d] = %g, want %g", x, got3[x], want)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewDatasetDimValidation(t *testing.T) {
	env := sim.NewEnv()
	fs := pfs.New(env, pfs.Params{NumOSTs: 2})
	if _, _, err := NewDataset4D(fs, []int64{2, 2}, 1, 0); err == nil {
		t.Error("wrong rank accepted for 4D")
	}
	if _, _, err := NewDataset3D(fs, []int64{2}, 1, 0); err == nil {
		t.Error("wrong rank accepted for 3D")
	}
}

func TestSplitAlongDim(t *testing.T) {
	slab := layout.Slab{Start: []int64{4, 0}, Count: []int64{10, 7}}
	parts := SplitAlongDim(slab, 0, 3)
	var total int64
	pos := int64(4)
	for _, p := range parts {
		if p.Start[0] != pos {
			t.Fatalf("gap in split: %v", parts)
		}
		pos += p.Count[0]
		total += p.NumElems()
		if p.Count[1] != 7 || p.Start[1] != 0 {
			t.Fatalf("other dim disturbed: %v", p)
		}
	}
	if total != slab.NumElems() {
		t.Fatalf("split covers %d of %d", total, slab.NumElems())
	}
	defer func() {
		if recover() == nil {
			t.Error("oversplit did not panic")
		}
	}()
	SplitAlongDim(layout.Slab{Start: []int64{0}, Count: []int64{2}}, 0, 5)
}

// TestRowGensMatchScalarFns pins the hoisted row generators to the scalar
// value functions bit for bit: the base-term grouping and the partial FNV
// hash must reproduce the per-element arithmetic exactly, including at rows
// crossing the sin-table period and hash-collision-prone coordinates. The
// rows starting far beyond 2^32 pin lonWaveTable's claim that the longitude
// term depends on x mod 256 alone.
func TestRowGensMatchScalarFns(t *testing.T) {
	rows4 := [][]int64{
		{0, 0, 0, 0}, {3, 17, 2, 250}, {359, 1, 0, 0}, {360, 1023, 99, 1000},
		{719, 512, 50, 5}, {1023, 7, 3, 1020}, {11, 5, 7, 1<<40 - 30},
	}
	out := make([]float64, 64)
	for _, start := range rows4 {
		gen4D{}.FillRow(start, out)
		for k, got := range out {
			c := []int64{start[0], start[1], start[2], start[3] + int64(k)}
			want := Temperature4D(c)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("gen4D at %v = %x, scalar = %x", c,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	rows3 := [][]int64{
		{0, 0, 0}, {100, 700, 120}, {360, 0, 255}, {204799, 1023, 1000},
		{5, 9, 1<<33 + 250}, {5, 9, 1<<52 - 40},
	}
	for _, start := range rows3 {
		gen3D{}.FillRow(start, out)
		for k, got := range out {
			c := []int64{start[0], start[1], start[2] + int64(k)}
			want := Temperature3D(c)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("gen3D at %v = %x, scalar = %x", c,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestJitterTableIsTheHashResidue pins jitterTable to hashJitter. Entry j
// must be 2*hashJitter of the one coordinate whose last FNV step multiplies
// j, and rows at 10^5 seeded random coordinates, with x up to 2^52, must give
// Temperature3D/4D's bits: the table is indexed by the low 12 bits of h^x
// (not of x), and the sum keeps the scalar grouping, (base + lon) + jitter.
func TestJitterTableIsTheHashResidue(t *testing.T) {
	for j, got := range jitterTable {
		want := 2 * hashJitter([]int64{int64(fnvBasis ^ uint64(j))})
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("jitterTable[%d] = %x, scalar = %x", j,
				math.Float64bits(got), math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewPCG(36, 4096))
	out := make([]float64, 8)
	c := make([]int64, 4)
	for i := 0; i < 100000; i++ {
		// Half the rows lie near the datasets' grids, where the base term
		// crosses zero and so cancels the longitude term: there a sum
		// regrouped as base + (lon + jitter) rounds lon + jitter visibly.
		tt, y, z := rng.Int64N(1<<31), rng.Int64N(1<<31), rng.Int64N(1<<31)
		if i%2 == 0 {
			tt, y, z = rng.Int64N(1<<16), rng.Int64N(2048), rng.Int64N(128)
		}
		x0 := rng.Int64N(1<<52 - int64(len(out)))
		gen3D{}.FillRow([]int64{tt, y, x0}, out)
		for k, got := range out {
			c3 := append(c[:0], tt, y, x0+int64(k))
			if want := Temperature3D(c3); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("gen3D at %v = %x, scalar = %x", c3,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
		gen4D{}.FillRow([]int64{tt, y, z, x0}, out)
		for k, got := range out {
			c4 := append(c[:0], tt, y, z, x0+int64(k))
			if want := Temperature4D(c4); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("gen4D at %v = %x, scalar = %x", c4,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// benchRow reports a row generator's throughput over one 1024-element row.
func benchRow(b *testing.B, g ncfile.Gen, c []int64) {
	out := make([]float64, 1024)
	for i := 0; i < b.N; i++ {
		g.FillRow(c, out)
	}
	b.ReportMetric(float64(b.N)*float64(len(out))/b.Elapsed().Seconds()/1e6, "Melem/s")
}

func BenchmarkGen3DRow(b *testing.B) { benchRow(b, gen3D{}, []int64{100, 512, 0}) }

func BenchmarkGen4DRow(b *testing.B) { benchRow(b, gen4D{}, []int64{100, 512, 5, 0}) }
