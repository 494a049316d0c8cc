package wrf

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func smallStorm() Storm { return DefaultStorm(16, 64, 64) }

func TestSLPShape(t *testing.T) {
	s := smallStorm()
	ey, ex := s.eye(0)
	atEye := s.SLP([]int64{0, int64(ey), int64(ex)})
	far := s.SLP([]int64{0, 0, 63})
	if atEye >= far {
		t.Fatalf("eye pressure %g not lower than far field %g", atEye, far)
	}
	if far < 1000 || far > 1014 {
		t.Fatalf("ambient pressure %g implausible", far)
	}
	// The low deepens over time.
	eyT, exT := s.eye(float64(s.NT - 1))
	late := s.SLP([]int64{s.NT - 1, int64(eyT), int64(exT)})
	if late >= atEye {
		t.Fatalf("storm did not deepen: %g -> %g", atEye, late)
	}
}

func TestWindRing(t *testing.T) {
	s := smallStorm()
	ey, ex := s.eye(0)
	calmEye := s.Wind10([]int64{0, int64(ey), int64(ex)})
	ring := s.Wind10([]int64{0, int64(ey), int64(ex + s.CoreRadius)})
	far := s.Wind10([]int64{0, 0, 63})
	if ring <= calmEye || ring <= far {
		t.Fatalf("no wind ring: eye %g ring %g far %g", calmEye, ring, far)
	}
	if ring > s.MaxWind {
		t.Fatalf("ring wind %g exceeds max %g", ring, s.MaxWind)
	}
}

func TestEyeMoves(t *testing.T) {
	s := smallStorm()
	y0, x0 := s.eye(0)
	y1, x1 := s.eye(float64(s.NT - 1))
	if y1 <= y0 || x1 <= x0 {
		t.Fatalf("eye did not move: (%g,%g) -> (%g,%g)", y0, x0, y1, x1)
	}
}

// Brute-force scan of the full grid must agree with the collective-computing
// MinSLP and MaxWind tasks, including the coordinates.
func TestTasksMatchBruteForce(t *testing.T) {
	storm := DefaultStorm(8, 32, 32)
	// Brute force.
	bruteMin := cc.Loc{Val: math.Inf(1)}
	bruteMax := cc.Loc{Val: math.Inf(-1)}
	for ti := int64(0); ti < storm.NT; ti++ {
		for y := int64(0); y < storm.NY; y++ {
			for x := int64(0); x < storm.NX; x++ {
				c := []int64{ti, y, x}
				slp := float64(float32(storm.SLP(c)))
				wind := float64(float32(storm.Wind10(c)))
				if slp < bruteMin.Val {
					bruteMin = cc.Loc{Val: slp, Coords: append([]int64(nil), c...), Valid: true}
				}
				if wind > bruteMax.Val {
					bruteMax = cc.Loc{Val: wind, Coords: append([]int64(nil), c...), Valid: true}
				}
			}
		}
	}

	const n = 4
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 2})
	fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: 1 << 14})
	d, err := NewDataset(fs, storm, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	comm := w.Comm()
	slabs := climate.SplitAlongDim(d.FullSlab(), 0, n)
	results := make(map[string]cc.Result)
	w.Go(func(r *mpi.Rank) {
		cl := fs.Client(r.Proc(), r.Rank(), nil)
		for _, task := range []Task{d.MinSLPTask(), d.MaxWindTask()} {
			res, err := cc.ObjectGetVara(r, comm, cl, cc.IO{
				DS: d.DS, VarID: task.VarID, Slab: slabs[r.Rank()],
				Reduce: cc.AllToAll, Params: adio.Params{CB: 8 << 10, Pipeline: true},
			}, task.Op)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Root {
				results[task.Name] = res
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	gotMin := results["Min Sea-Level Pressure (hPa)"].State.(cc.Loc)
	if gotMin.Val != bruteMin.Val {
		t.Fatalf("min SLP %g at %v, want %g at %v", gotMin.Val, gotMin.Coords, bruteMin.Val, bruteMin.Coords)
	}
	gotMax := results["Max 10m wind speed (knots)"].State.(cc.Loc)
	if gotMax.Val != bruteMax.Val {
		t.Fatalf("max wind %g, want %g", gotMax.Val, bruteMax.Val)
	}
	// The eye should be in the interior of the domain, where the track ends.
	if gotMin.Coords[0] != storm.NT-1 {
		t.Errorf("deepest pressure not at final time step: %v", gotMin.Coords)
	}
}

func TestNewDatasetVars(t *testing.T) {
	env := sim.NewEnv()
	fs := pfs.New(env, pfs.Params{NumOSTs: 2})
	d, err := NewDataset(fs, smallStorm(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id, name := range map[int]string{d.SLPVar: "slp", d.WindVar: "wind10"} {
		if v, err := d.DS.Var(id); err != nil || v.Name != name {
			t.Fatalf("variable %d = %+v, %v; want %q", id, v, err, name)
		}
	}
	if d.SLPVar == d.WindVar {
		t.Fatal("slp and wind10 share an id")
	}
	if _, err := d.DS.Var(2); err == nil {
		t.Fatal("a third variable exists")
	}
}

// TestStormRowGensMatchScalarFns pins slpGen and windGen to the scalar
// Storm.SLP and Storm.Wind10 bit for bit, as climate's TestRowGensMatchScalarFns
// pins its generators: the storms of fig13's quick, default and paper grids,
// one whose intensity saturates at 1 a quarter of the way through, rows at
// seeded random positions (whole and partial) and rows starting past 2^32 and
// 2^52 on both the y and x axes.
func TestStormRowGensMatchScalarFns(t *testing.T) {
	saturating := DefaultStorm(64, 256, 256)
	saturating.Deepening = 2 / float64(saturating.NT)
	if saturating.intensity(float64(saturating.NT-1)) != 1 {
		t.Fatal("the saturating storm does not saturate")
	}
	storms := []Storm{
		DefaultStorm(25, 128, 128), DefaultStorm(50, 128, 128), // -quick
		DefaultStorm(102, 1024, 1024), DefaultStorm(204, 1024, 1024), DefaultStorm(409, 1024, 1024),
		DefaultStorm(1024, 1024, 1024), DefaultStorm(2048, 1024, 1024), DefaultStorm(4096, 1024, 1024),
		saturating,
	}
	rng := rand.New(rand.NewPCG(13, 1013))
	out := make([]float64, 1024)
	c := make([]int64, 3)
	check := func(s *Storm, start []int64, n int) {
		t.Helper()
		for _, g := range []struct {
			name string
			gen  ncfile.Gen
			fn   func([]int64) float64
		}{{"slp", slpGen{s}, s.SLP}, {"wind10", windGen{s}, s.Wind10}} {
			row := out[:n]
			g.gen.FillRow(start, row)
			for k, got := range row {
				at := append(c[:0], start[0], start[1], start[2]+int64(k))
				if want := g.fn(at); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s row of storm %+v at %v = %x, scalar = %x", g.name, *s, at,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
	for i := range storms {
		s := &storms[i]
		ey, _ := s.eye(float64(s.NT - 1))
		check(s, []int64{s.NT - 1, int64(ey), 0}, int(s.NX)) // through the last eye
		for r := 0; r < 64; r++ {
			x0 := rng.Int64N(s.NX)
			check(s, []int64{rng.Int64N(s.NT), rng.Int64N(s.NY), x0}, int(s.NX-x0))
		}
		for _, far := range []int64{1<<32 + 7, 1<<52 - 40} {
			check(s, []int64{s.NT / 2, far, far}, 64)
			check(s, []int64{far, 3, far}, 64)
		}
	}
}

// benchStorm is fig13's largest default-scale storm.
var benchStorm = DefaultStorm(409, 1024, 1024)

// benchRow reports a row generator's throughput over one 1024-element row of
// benchStorm, crossing the eye.
func benchRow(b *testing.B, g ncfile.Gen) {
	ey, _ := benchStorm.eye(200)
	c := []int64{200, int64(ey), 0}
	out := make([]float64, 1024)
	for i := 0; i < b.N; i++ {
		g.FillRow(c, out)
	}
	b.ReportMetric(float64(b.N)*float64(len(out))/b.Elapsed().Seconds()/1e6, "Melem/s")
}

func BenchmarkSLPRow(b *testing.B) { benchRow(b, slpGen{&benchStorm}) }

func BenchmarkWindRow(b *testing.B) { benchRow(b, windGen{&benchStorm}) }

// scanRow is the loop slpGen's MinRow (least) or MaxRow replaces: the
// scan's rule applied to the row's rounded values one at a time. It is
// their oracle.
func scanRow(r slpRow, x0 int64, n int, best float64, valid, least bool) (float64, int) {
	at := -1
	for k := 0; k < n; k++ {
		v := ncfile.Float32Round(r.at(x0 + int64(k)))
		if (least && v < best) || (!least && v > best) || !valid {
			best, valid, at = v, true, k
		}
	}
	return best, at
}

// TestSLPRowExtremaMatchScan holds slpGen's closed-form MinRow and MaxRow to
// the scan, bit for bit, with the index: over fig13's default storm and
// storms whose rows pass 2^20, 2^34 and 2^56 elements, so that the eye's
// float32 plateau spans thousands of elements or more and float64(x) itself
// rounds past 2^53; on rows left of the eye, right of it and across it, of
// one element and more; from no incoming value and from one below, equal to
// and above the row's extreme, and a NaN. The plateau must cut a row: some
// row's least value first occurs before ⌊ex⌋ and again after.
func TestSLPRowExtremaMatchScan(t *testing.T) {
	storms := []Storm{DefaultStorm(409, 1024, 1024), DefaultStorm(8, 16, 1<<20),
		DefaultStorm(4, 8, 1<<34), DefaultStorm(4, 8, 1<<56)}
	rng := rand.New(rand.NewPCG(1, 2015))
	var sides [3]int // rows left of the eye, across it, right of it
	plateaus := 0
	for i := range storms {
		s := &storms[i]
		g := slpGen{s}
		for trial := 0; trial < 300; trial++ {
			c := []int64{rng.Int64N(s.NT), rng.Int64N(s.NY), 0}
			r := g.row(c)
			n := 1 + rng.IntN(1+rng.IntN(int(min(s.NX, 20000))))
			if trial%10 == 0 {
				n = 1
			}
			ex := int64(min(max(r.ex, 0), float64(s.NX-1)))
			var x0 int64
			switch trial % 3 {
			case 0: // the row ends before the eye
				x0 = ex - int64(n) - rng.Int64N(3*int64(n)+1)
			case 1: // the row holds the eye
				x0 = ex - rng.Int64N(int64(n))
			default: // the row starts past the eye
				x0 = ex + 1 + rng.Int64N(3*int64(n)+1)
			}
			x0 = min(max(x0, 0), s.NX-int64(n))
			c[2] = x0
			switch {
			case float64(x0+int64(n)-1) < r.ex:
				sides[0]++
			case float64(x0) > r.ex:
				sides[2]++
			default:
				sides[1]++
			}
			for _, least := range []bool{true, false} {
				m, k := scanRow(r, x0, n, 0, false, least)
				if least && k < n-1 && float64(x0+int64(k)) < math.Floor(r.ex) && r.rounded(x0+int64(k)+1) == m {
					plateaus++
				}
				for _, in := range []struct {
					best  float64
					valid bool
				}{{0, false}, {math.NaN(), false}, {math.Nextafter(m, math.Inf(-1)), true}, {m, true},
					{math.Nextafter(m, math.Inf(1)), true}, {math.Inf(1), true}, {math.Inf(-1), true}, {math.NaN(), true}} {
					wantV, wantK := scanRow(r, x0, n, in.best, in.valid, least)
					gotV, gotK := g.MaxRow(c, n, in.best, in.valid)
					if least {
						gotV, gotK = g.MinRow(c, n, in.best, in.valid)
					}
					if math.Float64bits(gotV) != math.Float64bits(wantV) || gotK != wantK {
						t.Fatalf("storm %d, row %v of %d (eye at x %v), least %v, from %v (valid %v): got %v at %d, scan %v at %d",
							i, c, n, r.ex, least, in.best, in.valid, gotV, gotK, wantV, wantK)
					}
				}
			}
		}
	}
	if sides[0] == 0 || sides[1] == 0 || sides[2] == 0 || plateaus == 0 {
		t.Fatalf("rows left of, across and right of the eye: %v; rows whose least value's plateau starts before the eye: %d", sides, plateaus)
	}
}

// TestNewDatasetRejectsUnprovenStorms: a storm whose pressure rows need not
// fall and then rise, which the closed-form extrema rest on, is refused,
// naming the field.
func TestNewDatasetRejectsUnprovenStorms(t *testing.T) {
	fs := pfs.New(sim.NewEnv(), pfs.Params{})
	for _, tc := range []struct {
		field string
		set   func(*Storm)
	}{
		{"Depth", func(s *Storm) { s.Depth = -1 }},
		{"Depth", func(s *Storm) { s.Depth = math.NaN() }},
		{"Depth", func(s *Storm) { s.Depth = math.Inf(1) }},
		{"Deepening", func(s *Storm) { s.Deepening = -0.1 }},
		{"X0", func(s *Storm) { s.X0 = math.Inf(1) }},
		{"VY", func(s *Storm) { s.VY = math.NaN() }},
		{"CoreRadius", func(s *Storm) { s.CoreRadius = 0 }},
		{"CoreRadius", func(s *Storm) { s.CoreRadius = 1e200 }},
	} {
		s := smallStorm()
		tc.set(&s)
		if _, err := NewDataset(fs, s, 4, 0); err == nil || !strings.Contains(err.Error(), "Storm."+tc.field) {
			t.Errorf("%s: NewDataset returned %v, want an error naming Storm.%s", tc.field, err, tc.field)
		}
	}
	if _, err := NewDataset(fs, smallStorm(), 4, 0); err != nil {
		t.Fatalf("the default storm: %v", err)
	}
}
