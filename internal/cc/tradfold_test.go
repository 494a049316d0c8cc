package cc

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// 1024-element rows, a 3-D variable whose rows are longer than a fold chunk,
// so that a chunk is part of a row, and a 3-D variable of 1000-element rows,
// which no chunk boundary falls between.
var foldVars = [][]int64{{4, 6, 16, 1024}, {2, 4, 20000}, {5, 4, 1000}}

// foldShapes are the slabs the traditional fold is checked on, with the
// number of subsets the map's cut makes of them: each element run is cut
// into chunks of foldChunk (8,192) elements, and each chunk into the
// coalesced slabs of RunToSlabs.
var foldShapes = []struct {
	name    string
	v       int // index into foldVars
	slab    layout.Slab
	subsets int
}{
	// Dimensions of count 1 in front: one run of 64 rows, eight chunks of
	// eight whole rows, one subset each.
	{"leading unit dims", 0, layout.Slab{Start: []int64{1, 1, 0, 0}, Count: []int64{1, 4, 16, 1024}}, 8},
	// Partial rows: 195 runs of 1000 elements, a chunk and a subset each.
	{"partial rows", 0, layout.Slab{Start: []int64{0, 0, 3, 5}, Count: []int64{3, 5, 13, 1000}}, 195},
	// One run of two 20,000-element rows in five chunks; the third holds
	// the end of one row and the start of the next, two subsets.
	{"chunks across a row end", 1, layout.Slab{Start: []int64{1, 1, 0}, Count: []int64{1, 2, 20000}}, 6},
	// One row in three chunks.
	{"single row", 1, layout.Slab{Start: []int64{0, 2, 100}, Count: []int64{1, 1, 19000}}, 3},
	// The whole variable, one run of twenty 1000-element rows. Chunk 1 is
	// the four rows of time step 0, the four of step 1 and a partial row;
	// chunk 2 a partial row, the last three rows of step 2, the four of
	// step 3 and a partial row; chunk 3 a partial row and three whole ones.
	{"chunk boundaries mid-row", 2, layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{5, 4, 1000}}, 9},
}

// foldSource is what a fold bed's variable holds: unroundedAt, from a
// generator when image is nil and else from a MemBackend holding image
// (foldImages), or, with climate set, climate's field of its rank, whose
// generator scans.
type foldSource struct {
	image   []byte
	climate bool
}

func (s foldSource) String() string {
	switch {
	case s.climate:
		return "climate"
	case s.image != nil:
		return "membackend"
	}
	return "generator"
}

// newFoldBed is a one-rank value bed (newValueBed) over foldVars[v], in
// 64 KiB stripes, holding src.
func newFoldBed(t *testing.T, v int, src foldSource) *testbed {
	t.Helper()
	if !src.climate {
		return newValueBed(t, 1, ncfile.Float32, foldVars[v], 64<<10, src.image, false)
	}
	tb := newValueBed(t, 1, ncfile.Float32, []int64{1}, 64<<10, nil, false)
	var err error
	if dims := foldVars[v]; len(dims) == 4 {
		tb.ds, tb.id, err = climate.NewDataset4D(tb.fs, dims, 4, 0)
	} else {
		tb.ds, tb.id, err = climate.NewDataset3D(tb.fs, dims, 4, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// foldImages is the file image of each fold bed (imageOf), by variable.
func foldImages(t *testing.T) [][]byte {
	images := make([][]byte, len(foldVars))
	for v := range foldVars {
		images[v] = imageOf(newFoldBed(t, v, foldSource{}))
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
func runFold(t *testing.T, src foldSource, v int, slab layout.Slab, io IO, op Op) Result {
	t.Helper()
	tb := newFoldBed(t, v, src)
	io.Params.CB = 64 << 10
	return runObjectGetVara(t, tb, []layout.Slab{slab}, io, op)[0]
}

// tileOp checks the traditional leg's fold from inside Absorb: no two calls
// run at once (inflight counts the calls under way), and the subsets arrive
// in row-major order, each a sub-rectangle of slab whose elements follow on,
// in the slab's row-major order, from the last subset's, with one value per
// element. Its state is the number of elements and subsets folded.
type tileOp struct {
	t        *testing.T
	slab     layout.Slab
	inflight *atomic.Int32
}

type tileState struct{ elems, subsets int64 }

func (o tileOp) Name() string      { return "tile" }
func (o tileOp) Zero() State       { return tileState{} }
func (o tileOp) StateBytes() int64 { return 16 }
func (o tileOp) Merge(a, b State) State {
	x, y := a.(tileState), b.(tileState)
	return tileState{x.elems + y.elems, x.subsets + y.subsets}
}
func (o tileOp) Value(s State) float64 { return float64(s.(tileState).subsets) }

func (o tileOp) Absorb(s State, sub Subset) State {
	if n := o.inflight.Add(1); n != 1 {
		o.t.Errorf("%d traditional-leg Absorb calls at once", n)
	}
	defer o.inflight.Add(-1)
	st := s.(tileState)
	u, sl := sub.Slab, o.slab
	// The subset's first element, as an index into the slab in row-major
	// order. The subset's elements are a run of that order when every
	// dimension after the first whose count is not 1 is whole.
	var first int64
	split := -1
	for d := range sl.Count {
		if u.Start[d] < sl.Start[d] || u.Start[d]+u.Count[d] > sl.Start[d]+sl.Count[d] {
			o.t.Errorf("subset %v outside the slab %v", u, sl)
			return st
		}
		first = first*sl.Count[d] + u.Start[d] - sl.Start[d]
		switch {
		case split < 0 && u.Count[d] != 1:
			split = d
		case split >= 0 && d > split && u.Count[d] != sl.Count[d]:
			o.t.Errorf("subset %v of slab %v is not a run of its row-major order", u, sl)
		}
	}
	if first != st.elems {
		o.t.Errorf("subset %d %v starts at element %d of the slab, want %d", st.subsets, u, first, st.elems)
	}
	if int64(len(sub.Data)) != u.NumElems() {
		o.t.Errorf("subset %v folded with %d values", u, len(sub.Data))
	}
	// Work through the values, so that a call lasts long enough for an
	// overlap to show.
	var acc float64
	for _, x := range sub.Data {
		acc += x
	}
	if math.IsNaN(acc) {
		o.t.Errorf("subset %v has a NaN", u)
	}
	return tileState{elems: st.elems + u.NumElems(), subsets: st.subsets + 1}
}

// TestTraditionalFoldOneAtATimeInOrder: at GOMAXPROCS 4, the traditional
// leg's Absorb calls never overlap and take the subsets in row-major order,
// tiling the slab exactly, in as many subsets as the map's cut makes of the
// shape's chunks; over a generator and a MemBackend, collective and
// independent. Subsets made on several goroutines and folded as they came
// would fail it (and -race would report the shared state), as would chunks
// folded out of order or dropped.
func TestTraditionalFoldOneAtATimeInOrder(t *testing.T) {
	images := foldImages(t)
	atProcs(4, func() {
		for _, sh := range foldShapes {
			for _, src := range []foldSource{{}, {image: images[sh.v]}} {
				for _, mode := range []Mode{Collective, Independent} {
					op := tileOp{t: t, slab: sh.slab, inflight: new(atomic.Int32)}
					st := runFold(t, src, sh.v, sh.slab, IO{Block: true, Mode: mode}, op).State.(tileState)
					if st.elems != sh.slab.NumElems() || st.subsets != int64(sh.subsets) {
						t.Errorf("%s, %v, mode %d: %d elements in %d subsets, want %d in %d",
							sh.name, src, mode, st.elems, st.subsets, sh.slab.NumElems(), sh.subsets)
					}
				}
			}
		}
	})
}

// TestEmptySlabFoldsToZero: a rank whose slab holds no element (a count of
// 0 in a dimension after the first) gets its operator's Zero() state, from
// either leg through either read, for every operator over a generator, its
// MemBackend twin and the climate field.
func TestEmptySlabFoldsToZero(t *testing.T) {
	images := foldImages(t)
	slab := layout.Slab{Start: []int64{0, 0, 0, 0}, Count: []int64{1, 0, 16, 1024}}
	for _, src := range []foldSource{{}, {image: images[0]}, {climate: true}} {
		for _, op := range foldOps(slab) {
			want := fmt.Sprintf("%#v", op.Zero())
			for _, block := range []bool{true, false} {
				for _, mode := range []Mode{Collective, Independent} {
					res := runFold(t, src, 0, slab, IO{Block: block, Mode: mode}, op)
					if got := fmt.Sprintf("%#v", res.State); got != want {
						t.Errorf("%s, %v, block %v, mode %d: state %s, want Zero() %s",
							op.Name(), src, block, mode, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkTraditionalLeg measures one traditional (Block) leg of Sum over
// the climate generator, in paper_cc's shape: 8 ranks, each reading 8
// latitude rows of 1024 elements for 32 time steps, which Sum scans. MB/s
// reads Melem/s.
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

// meetOp is Sum with a rendezvous that proves the traditional fold runs
// while the other job's map does: its Absorb on the traditional side (trad
// set) marks the fold started and waits until the CC side has seen that
// mark; the CC side's first Absorb waits for the mark, whichever side the
// host's scheduler runs first, then lets the fold go on. A wait that times
// out is an error, and both sides go on.
type meetOp struct {
	Sum
	trad         bool
	started, met chan struct{}
	start, meet  *sync.Once
	t            *testing.T
}

// await waits up to 10 s for ch to close and reports an error if it does not.
func (o meetOp) await(ch chan struct{}, why string) {
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		o.t.Error(why)
	}
}

func (o meetOp) Absorb(s State, sub Subset) State {
	if o.trad {
		o.start.Do(func() { close(o.started) })
		o.await(o.met, "the CC map never ran while the traditional fold was in flight")
		o.meet.Do(func() { close(o.met) })
	} else {
		o.meet.Do(func() {
			o.await(o.started, "the traditional fold never started while the CC map ran")
			close(o.met)
		})
	}
	return o.Sum.Absorb(s, sub)
}

// TestOneDatasetServesTwoJobsBesideAFold: one dataset serves two jobs at
// once, a traditional leg on ranks 0-3 and a CC leg on ranks 4-7 that starts
// once the traditional reads are done and maps while the traditional ranks
// are charged for their folds, so that those folds run beside the simulation
// while the other job's map runs on the dataset's host workers (meetOp
// proves the overlap). Each job's results are its cold run's, alone on a
// machine of its own, bit for bit: with scanning operators (Sum on one side,
// MinLoc on the other) and with Sum folded by Absorb. Once Run returns,
// every goroutine the folds started has ended.
func TestOneDatasetServesTwoJobsBesideAFold(t *testing.T) {
	g := parGeometry
	// Each job is four ranks, each reading one of parGeometry's slabs of at
	// least host.Grain elements, so that every fold has a goroutine.
	all := parSlabs()
	slabs := []layout.Slab{all[1], all[3], all[5], all[6]}
	cold := func(io IO, op Op) []Result {
		tb := newClimateBed(t, false)
		w := mpi.NewWorld(tb.env, 4, fabric.Params{RanksPerNode: 4})
		tb.w, tb.c = w, w.Comm()
		return runObjectGetVara(t, tb, slabs, io, op)
	}
	const ccStart = 0.5 // s: the traditional reads are done by then
	trad := IO{Block: true, SecPerElem: 1e-4, Params: adio.Params{CB: g.cb}}
	ccIO := IO{Reduce: AllToAll, SecPerElem: 2e-8, Params: adio.Params{CB: g.cb, Pipeline: true}}
	for _, pair := range []struct {
		name       string
		tradOp     Op
		ccOp       Op
		rendezvous bool
	}{
		{"scans", Sum{}, MinLoc{}, false},
		{"absorb", struct{ Op }{Sum{}}, struct{ Op }{Sum{}}, true},
	} {
		atProcs(4, func() {
			wantTrad, wantCC := cold(trad, pair.tradOp), cold(ccIO, pair.ccOp)
			tradOp, ccOp := pair.tradOp, pair.ccOp
			if pair.rendezvous {
				m := meetOp{started: make(chan struct{}), met: make(chan struct{}), start: new(sync.Once), meet: new(sync.Once), t: t}
				ccOp = m
				m.trad = true
				tradOp = m
			}

			base := runtime.NumGoroutine()
			tb := newClimateBed(t, false)
			comms := []*mpi.Comm{
				tb.w.SubNS(tb.w.NewNamespace(), []int{0, 1, 2, 3}),
				tb.w.SubNS(tb.w.NewNamespace(), []int{4, 5, 6, 7}),
			}
			results := make([]Result, 8)
			tb.w.Go(func(r *mpi.Rank) {
				job, io, op := r.Rank()/4, trad, tradOp
				if job == 1 {
					io, op = ccIO, ccOp
					r.Compute(ccStart)
				}
				io.DS, io.VarID, io.Slab = tb.ds, tb.id, slabs[r.Rank()%4]
				var err error
				results[r.Rank()], err = ObjectGetVara(r, comms[job], tb.fs.Client(r.Proc(), r.Rank(), nil), io, op)
				if err != nil {
					t.Error(err)
				}
			})
			if err := tb.env.Run(); err != nil {
				t.Fatal(err)
			}
			for i, want := range append(wantTrad, wantCC...) {
				got := results[i]
				if got.Value != want.Value || got.Root != want.Root || !reflect.DeepEqual(got.State, want.State) {
					t.Errorf("%s: rank %d: %+v, cold %+v", pair.name, i, got, want)
				}
			}
			for i := 0; runtime.NumGoroutine() > base; i++ {
				if i == 1000 {
					t.Fatalf("%s: %d goroutines after Run, %d before", pair.name, runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
