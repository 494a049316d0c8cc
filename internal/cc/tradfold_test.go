package cc

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/adio"
	"repro/internal/climate"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// foldVars are the variables of the traditional fold's beds: a 4-D grid of
// 1024-element rows, and a 3-D variable whose rows are longer than a fold
// unit, so that a unit can only be a whole row.
var foldVars = [][]int64{{4, 6, 16, 1024}, {2, 4, 20000}}

// foldShapes are the slabs the traditional fold is checked on, with the
// number of units ncfile cuts each into (8,192 elements at most, unless a
// row is longer; rows are never cut).
var foldShapes = []struct {
	name  string
	v     int // index into foldVars
	slab  layout.Slab
	units int
}{
	// Dimensions of count 1 in front: each unit fixes coordinates 0 and 1
	// and takes 8 of the 16 rows of dimension 2.
	{"leading unit dims", 0, layout.Slab{Start: []int64{1, 1, 0, 0}, Count: []int64{1, 4, 16, 1024}}, 8},
	// Partial rows; the 13 rows of dimension 2 go 8 and 5.
	{"ragged last unit", 0, layout.Slab{Start: []int64{0, 0, 3, 5}, Count: []int64{3, 5, 13, 1000}}, 30},
	{"2-unit split", 1, layout.Slab{Start: []int64{1, 1, 0}, Count: []int64{1, 2, 20000}}, 2},
	{"single row", 1, layout.Slab{Start: []int64{0, 2, 100}, Count: []int64{1, 1, 19000}}, 1},
}

// newFoldBed is a one-rank value bed (newValueBed) over foldVars[v], in
// 64 KiB stripes: generator-backed when image is nil, else a MemBackend
// holding image (foldImages).
func newFoldBed(t *testing.T, v int, image []byte) *testbed {
	t.Helper()
	return newValueBed(t, 1, ncfile.Float32, foldVars[v], 64<<10, image, false)
}

// foldImages is the file image of each fold bed (imageOf), by variable.
func foldImages(t *testing.T) [][]byte {
	images := make([][]byte, len(foldVars))
	for v := range foldVars {
		images[v] = imageOf(newFoldBed(t, v, nil))
	}
	return images
}

// foldOps are the operators the traditional fold is checked with: those of
// TestHostParallelismMovesNothing, the other built-ins, and a window over
// the middle of the slab.
func foldOps(slab layout.Slab) []Op {
	hist := Histogram{Lo: -15000, Hi: 15000, Bins: 9}
	window := slab.Clone()
	for d := range window.Count {
		window.Start[d] += window.Count[d] / 3
		window.Count[d] = max(window.Count[d]/2, 1)
	}
	return []Op{Sum{}, Mean{}, hist, MinLoc{}, Variance{},
		PerIndex{Inner: Max{}, Keys: slab.Count[0]}, Fuse{Ops: []Op{Sum{}, MaxLoc{}}},
		Count{}, Min{}, Max{}, MaxLoc{}, WindowOp{Op: Sum{}, Window: window}}
}

// runFold runs one object I/O of io on a fresh fold bed and returns its
// result.
func runFold(t *testing.T, image []byte, v int, slab layout.Slab, io IO, op Op) Result {
	t.Helper()
	tb := newFoldBed(t, v, image)
	io.Params.CB = 64 << 10
	return runObjectGetVara(t, tb, []layout.Slab{slab}, io, op)[0]
}

// TestTraditionalFoldIsOneAbsorb is the oracle of the traditional leg's
// pipelined fold: on one rank, its state is, to the bit, the state of one
// Absorb of the whole slab from Zero() with the values GetVaraAll returns.
// Every operator, over a generator and over its MemBackend twin, through the
// collective and the independent read, at GOMAXPROCS 1 and 4 (where every
// slab of more than one unit is made on several workers), on slabs with
// leading dimensions of count 1, a ragged last unit, two units and one.
func TestTraditionalFoldIsOneAbsorb(t *testing.T) {
	images := foldImages(t)
	for _, sh := range foldShapes {
		for _, img := range [][]byte{nil, images[sh.v]} {
			tb := newFoldBed(t, sh.v, img)
			var vals []float64
			tb.w.Go(func(r *mpi.Rank) {
				var err error
				vals, err = tb.ds.GetVaraAll(r, tb.c, tb.fs.Client(r.Proc(), 0, nil), tb.id, sh.slab, nil, adio.Params{})
				if err != nil {
					t.Error(err)
				}
			})
			if err := tb.env.Run(); err != nil {
				t.Fatal(err)
			}
			for _, op := range foldOps(sh.slab) {
				want := fmt.Sprintf("%#v", op.Absorb(op.Zero(), Subset{Slab: sh.slab, Data: vals}))
				for _, mode := range []Mode{Collective, Independent} {
					for _, procs := range []int{1, 4} {
						var res Result
						atProcs(procs, func() {
							res = runFold(t, img, sh.v, sh.slab, IO{Block: true, Mode: mode}, op)
						})
						if got := fmt.Sprintf("%#v", res.State); got != want {
							t.Errorf("%s, %s, membackend=%v, mode %d, GOMAXPROCS=%d: state\n%s\nwant one Absorb's\n%s",
								sh.name, op.Name(), img != nil, mode, procs, got, want)
						}
					}
				}
			}
		}
	}
}

// tileOp checks the traditional leg's fold from inside Absorb: no two calls
// run at once (inflight counts the calls under way), and the units arrive in
// row-major order, each a sub-rectangle of slab whose elements follow on,
// in the slab's row-major order, from the last unit's, with one value per
// element. Its state is the number of elements and units folded.
type tileOp struct {
	t        *testing.T
	slab     layout.Slab
	inflight *atomic.Int32
}

type tileState struct{ elems, units int64 }

func (o tileOp) Name() string      { return "tile" }
func (o tileOp) Zero() State       { return tileState{} }
func (o tileOp) StateBytes() int64 { return 16 }
func (o tileOp) Merge(a, b State) State {
	x, y := a.(tileState), b.(tileState)
	return tileState{x.elems + y.elems, x.units + y.units}
}
func (o tileOp) Value(s State) float64 { return float64(s.(tileState).units) }

func (o tileOp) Absorb(s State, sub Subset) State {
	if n := o.inflight.Add(1); n != 1 {
		o.t.Errorf("%d traditional-leg Absorb calls at once", n)
	}
	defer o.inflight.Add(-1)
	st := s.(tileState)
	u, sl := sub.Slab, o.slab
	// The unit's first element, as an index into the slab in row-major
	// order. The unit's elements are a run of that order when every
	// dimension after the first whose count is not 1 is whole.
	var first int64
	split := -1
	for d := range sl.Count {
		if u.Start[d] < sl.Start[d] || u.Start[d]+u.Count[d] > sl.Start[d]+sl.Count[d] {
			o.t.Errorf("unit %v outside the slab %v", u, sl)
			return st
		}
		first = first*sl.Count[d] + u.Start[d] - sl.Start[d]
		switch {
		case split < 0 && u.Count[d] != 1:
			split = d
		case split >= 0 && d > split && u.Count[d] != sl.Count[d]:
			o.t.Errorf("unit %v of slab %v is not a run of its row-major order", u, sl)
		}
	}
	if first != st.elems {
		o.t.Errorf("unit %d %v starts at element %d of the slab, want %d", st.units, u, first, st.elems)
	}
	if int64(len(sub.Data)) != u.NumElems() {
		o.t.Errorf("unit %v folded with %d values", u, len(sub.Data))
	}
	// Work through the values, so that a call lasts long enough for an
	// overlap to show.
	var acc float64
	for _, x := range sub.Data {
		acc += x
	}
	if math.IsNaN(acc) {
		o.t.Errorf("unit %v has a NaN", u)
	}
	return tileState{elems: st.elems + u.NumElems(), units: st.units + 1}
}

// TestTraditionalFoldOneAtATimeInOrder: with the units made on four workers,
// the traditional leg's Absorb calls never overlap and take the units in
// row-major order, tiling the slab exactly, in as many units as ncfile's
// cut gives the shape; over a generator and a MemBackend, collective and
// independent. Without the fold's one-folder rule two workers fold at once,
// which this fails (and -race reports on the shared state).
func TestTraditionalFoldOneAtATimeInOrder(t *testing.T) {
	images := foldImages(t)
	atProcs(4, func() {
		for _, sh := range foldShapes {
			for _, img := range [][]byte{nil, images[sh.v]} {
				for _, mode := range []Mode{Collective, Independent} {
					op := tileOp{t: t, slab: sh.slab, inflight: new(atomic.Int32)}
					st := runFold(t, img, sh.v, sh.slab, IO{Block: true, Mode: mode}, op).State.(tileState)
					if st.elems != sh.slab.NumElems() || st.units != int64(sh.units) {
						t.Errorf("%s, membackend=%v, mode %d: %d elements in %d units, want %d in %d",
							sh.name, img != nil, mode, st.elems, st.units, sh.slab.NumElems(), sh.units)
					}
				}
			}
		}
	})
}

// BenchmarkTraditionalLeg measures one traditional (Block) leg of Sum over
// the climate generator, in paper_cc's shape: 8 ranks, each reading 8
// latitude rows of 1024 elements for 32 time steps, so each rank's fold is
// 32 units. MB/s reads Melem/s.
func BenchmarkTraditionalLeg(b *testing.B) {
	const ranks = 8
	dims := []int64{64, 8 * ranks, 1024}
	whole := layout.Slab{Start: []int64{16, 0, 0}, Count: []int64{32, dims[1], dims[2]}}
	slabs := climate.SplitAlongDim(whole, 1, ranks)
	b.SetBytes(whole.NumElems())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		w := mpi.NewWorld(env, ranks, fabric.Params{RanksPerNode: 4})
		fs := pfs.New(env, pfs.Params{NumOSTs: 4})
		ds, id, err := climate.NewDataset3D(fs, dims, 4, 4<<20)
		if err != nil {
			b.Fatal(err)
		}
		c := w.Comm()
		w.Go(func(r *mpi.Rank) {
			_, err := ObjectGetVara(r, c, fs.Client(r.Proc(), r.Rank(), nil), IO{
				DS: ds, VarID: id, Slab: slabs[r.Rank()], Block: true,
				Params: adio.Params{CB: 4 << 20},
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
