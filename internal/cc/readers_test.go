package cc_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
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

// This file is the differential of every way the runtime turns a read into
// values: a generator's scan, a generator's values, stored bytes scanned or
// decoded, and a coalesced pass shared between jobs. Each case names a
// content and its backing (the generator, or a MemBackend image of it
// written by PutVaraAll), an operator, a
// reader path and a sharing mode, and is held to one reference: the
// operator's opaque twin, struct{ cc.Op }, which neither scans nor shares a
// component, folded cold over the content's bytes encoded element by element
// from its scalar value function.

// content is what a variable holds: a scalar value function, at, and a
// generator of its bits row by row, which open makes a dataset of, on dims
// that the content takes. scan
// lists the grids of the fold layer: short rows, so that runs cross many,
// and rows longer than 2^32 elements (2^53, for WRF) or indexed past 2^32.
type content struct {
	name string
	nd   int
	scan [][]int64
	open func(fs *pfs.FS, dims []int64, stripe int64) (ds *ncfile.Dataset, id int, at ncfile.ValueFn)
}

// contents are climate's fields, WRF's pressure and wind, and the
// unrounded test content, which no float32 holds exactly, so that a value
// path that forgot the element type's rounding disagrees with the bytes.
var contents = []content{
	{"climate3d", 3, [][]int64{{40, 30, 97}, {3, 5, 1 << 34}},
		func(fs *pfs.FS, dims []int64, stripe int64) (*ncfile.Dataset, int, ncfile.ValueFn) {
			ds, id, _ := climate.NewDataset3D(fs, dims, 4, stripe)
			return ds, id, climate.Temperature3D
		}},
	{"climate4d", 4, [][]int64{{8, 24, 10, 64}, {2, 3, 4, 1 << 33}},
		func(fs *pfs.FS, dims []int64, stripe int64) (*ncfile.Dataset, int, ncfile.ValueFn) {
			ds, id, _ := climate.NewDataset4D(fs, dims, 4, stripe)
			return ds, id, climate.Temperature4D
		}},
	{"slp", 3, wrfGrids, wrfVar(true)},
	{"wind10", 3, wrfGrids, wrfVar(false)},
	{"unrounded", 3, nil,
		func(fs *pfs.FS, dims []int64, stripe int64) (*ncfile.Dataset, int, ncfile.ValueFn) {
			var s ncfile.Schema
			id, _ := s.AddVar("v", ncfile.Float32, dims)
			ds, _ := ncfile.SynthDataset(fs, "data", &s, []ncfile.ValueFn{cc.UnroundedAt}, 4, stripe, 0)
			return ds, id, cc.UnroundedAt
		}},
}

// wrfGrids add, for the pressure's closed-form extrema, rows of 2^56
// elements, along which float64(x) itself rounds past 2^53 and the eye's
// float32 plateau spans more than a run.
var wrfGrids = [][]int64{{16, 64, 64}, {4, 8, 1 << 34}, {4, 1 << 33, 96}, {4, 3, 1 << 56}}

// wrfVar opens the pressure (slp) or the wind of a storm sized to dims.
func wrfVar(slp bool) func(*pfs.FS, []int64, int64) (*ncfile.Dataset, int, ncfile.ValueFn) {
	return func(fs *pfs.FS, dims []int64, stripe int64) (*ncfile.Dataset, int, ncfile.ValueFn) {
		d, _ := wrf.NewDataset(fs, wrf.DefaultStorm(dims[0], dims[1], dims[2]), 4, stripe)
		if slp {
			return d.DS, d.SLPVar, d.Storm.SLP
		}
		return d.DS, d.WindVar, d.Storm.Wind10
	}
}

// encodeRuns is the float32 bytes of at's values at the elements of runs.
func encodeRuns(at ncfile.ValueFn, dims []int64, runs []layout.Run) []byte {
	var vals []float64
	coords := make([]int64, len(dims))
	for _, run := range runs {
		for e := run.Offset; e < run.End(); e++ {
			vals = append(vals, at(layout.OffsetToCoords(dims, e, coords)))
		}
	}
	return ncfile.EncodeValues(ncfile.Float32, vals)
}

// stored is ds laid out again on fs over a MemBackend holding image: the
// same variables and striping, with stored bytes for values.
func stored(fs *pfs.FS, ds *ncfile.Dataset, stripe int64, image []byte) *ncfile.Dataset {
	mem := pfs.NewMemBackend(0)
	mem.WriteAt(image, 0)
	return storedOn(fs, ds, stripe, mem)
}

// storedOn is stored over the backend mem.
func storedOn(fs *pfs.FS, ds *ncfile.Dataset, stripe int64, mem *pfs.MemBackend) *ncfile.Dataset {
	var s ncfile.Schema
	for i := 0; ; i++ {
		v, err := ds.Var(i)
		if err != nil {
			break
		}
		s.AddVar(v.Name, v.Type, v.Dims)
	}
	out, _ := ncfile.Create(fs, "image", &s, mem, 4, stripe, 0)
	return out
}

// geometry is a machine and an access region of the end-to-end layer:
// ranks on nodes of four reading a 3-D content of dims (a 4-D one has a
// leading dimension of 2, read whole), in stripes of stripe bytes over four
// OSTs, through collective buffers of cb bytes. window lies inside region.
type geometry struct {
	name           string
	ranks          int
	dims           []int64
	stripe, cb     int64
	region, window layout.Slab
}

// slab is the slab of the starts and then the counts of v.
func slab(v ...int64) layout.Slab { return layout.Slab{Start: v[:len(v)/2], Count: v[len(v)/2:]} }

// geometries: six ranks on two nodes (two aggregators), with 256-byte
// stripes and 512-byte buffers, over a region of partial rows, so that every
// run starts and ends mid-row and the sieve leaves the 16-byte gaps between
// them as holes, and over one of whole rows, whose five-row runs the
// 128-element buffer windows cut mid-row; and two ranks, each one run of two
// 20,000-element rows, which the traditional fold cuts into five chunks, the
// third across the row end, and, being over host.Grain elements, folds
// beside the simulation where GOMAXPROCS allows.
var geometries = []geometry{
	{"partial-rows", 6, []int64{8, 9, 13}, 256, 512, slab(1, 0, 2, 6, 9, 9), slab(2, 3, 4, 3, 4, 6)},
	{"whole-rows", 6, []int64{8, 9, 13}, 256, 512, slab(1, 2, 0, 6, 5, 13), slab(2, 3, 4, 3, 4, 6)},
	{"long-rows", 2, []int64{2, 2, 20000}, 64 << 10, 256 << 10, slab(0, 0, 0, 2, 2, 20000), slab(0, 1, 100, 2, 1, 15000)},
}

// of returns g's dims, region and window for a content of nd dimensions.
func (g geometry) of(nd int) (dims []int64, region, window layout.Slab) {
	if nd == 3 {
		return g.dims, g.region, g.window
	}
	lead := func(s layout.Slab) layout.Slab {
		return slab(slices.Concat([]int64{0}, s.Start, []int64{2}, s.Count)...)
	}
	return append([]int64{2}, g.dims...), lead(g.region), lead(g.window)
}

// operators are the eight of OpByName, a histogram, a per-index maximum, a
// fused sum and maximum with its location, and a histogram of window.
func operators(region, window layout.Slab) []cc.Op {
	var ops []cc.Op
	for _, name := range []string{"sum", "count", "min", "max", "mean", "minloc", "maxloc", "variance"} {
		op, _ := cc.OpByName(name)
		ops = append(ops, op)
	}
	hist := cc.Histogram{Lo: -100, Hi: 1100, Bins: 24}
	return append(ops, hist, cc.PerIndex{Inner: cc.Max{}, Keys: region.Count[0]},
		cc.Fuse{Ops: []cc.Op{cc.Sum{}, cc.MaxLoc{}}}, cc.WindowOp{Op: hist, Window: window})
}

// scanOps are the six operators a scan folds for.
var scanOps = []cc.Op{cc.Sum{}, cc.Mean{}, cc.Min{}, cc.Max{}, cc.MinLoc{}, cc.MaxLoc{}}

// paths are the end-to-end readers; cc marks those that map in place and
// take consumers.
var paths = []struct {
	name string
	io   cc.IO
	cc   bool
}{
	{"cc/all-to-one/pipelined", cc.IO{Reduce: cc.AllToOne, Params: adio.Params{Pipeline: true}}, true},
	{"cc/all-to-one/blocking", cc.IO{Reduce: cc.AllToOne}, true},
	{"cc/all-to-all/pipelined", cc.IO{Reduce: cc.AllToAll, Params: adio.Params{Pipeline: true}}, true},
	{"cc/all-to-all/blocking", cc.IO{Reduce: cc.AllToAll}, true},
	{"traditional/pipelined", cc.IO{Block: true, Params: adio.Params{Pipeline: true}}, false},
	{"traditional/blocking", cc.IO{Block: true}, false},
	{"independent/sieving", cc.IO{Mode: cc.Independent, Params: adio.Params{SieveThreshold: 8}}, false},
}

// readerCase is one case of the end-to-end layer.
type readerCase struct {
	ct      content
	image   bool // read the MemBackend image, not the generator
	op      cc.Op
	path    int
	sharing string // "cold", "consumer" (of a Sum donor's pass) or "duplicate"
	geo     geometry
	faults  bool // a straggling OST met by timeout/retry and rebalanced rounds
	procs   int  // GOMAXPROCS
}

func (c readerCase) String() string {
	return fmt.Sprintf("%s/image=%v/%s/%s/%s/%s/faults=%v/GOMAXPROCS=%d",
		c.ct.name, c.image, c.geo.name, c.op.Name(), paths[c.path].name, c.sharing, c.faults, c.procs)
}

// readerCases is the table: every content, backing, operator and path, with
// the geometry, sharing mode, fault plan and GOMAXPROCS turned with sums of
// the indices, so that every value of an axis meets every value of another.
// The long rows are read only by the paths that cut a rank's runs into
// chunks, and only the collective-computing paths take consumers.
func readerCases() []readerCase {
	var out []readerCase
	for ci, ct := range contents {
		for bi, image := range []bool{false, true} {
			for oi := range operators(geometries[0].region, geometries[0].window) {
				for pi, p := range paths {
					k := ci + bi + oi + pi
					c := readerCase{ct: ct, image: image, path: pi, sharing: "cold", geo: geometries[k%3],
						faults: k%2 == 1, procs: []int{1, 4}[k/2%2]}
					if p.cc {
						c.geo, c.sharing = geometries[(ci+oi)%2], []string{"cold", "consumer", "duplicate"}[(k+oi)%3]
					}
					_, region, window := c.geo.of(ct.nd)
					c.op = operators(region, window)[oi]
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// outcome is what an object I/O exposes: every rank's result, the
// consumers' results, and its charges: the makespan, Stats, the file
// system's bytes read, requests, timeouts and retries, and the fabric's
// messages and inter-node bytes.
type outcome struct {
	results, consumers []cc.Result
	charges
}

type charges struct {
	makespan float64
	stats    cc.Stats
	fs       [4]int64
	net      [2]int64
}

// render is a state to the bit: its type and values, float64s in the
// shortest form that reads back to the same bits, maps in key order.
func render(s cc.State) string { return fmt.Sprintf("%T%v", s, s) }

func sameResult(a, b cc.Result) bool {
	return math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Root == b.Root && render(a.State) == render(b.State)
}

// differential runs the cases and keeps the images and the reference runs.
type differential struct {
	t      *testing.T
	images map[string][]byte
	refs   map[string]outcome
}

// image is the file image of c's content on c's geometry, made once. The
// reference's is encoded element by element from the scalar value function;
// the cases' is written by PutVaraAll, each rank its share of the variable,
// on a machine of its own at GOMAXPROCS 4, so that a share above host.Grain
// is encoded in blocks on the host workers.
func (d *differential) image(c readerCase, written bool) []byte {
	g := c.geo
	key := fmt.Sprintf("%s/%s/written=%v", c.ct.name, g.name, written)
	if img := d.images[key]; img != nil {
		return img
	}
	env := sim.NewEnv()
	fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: g.stripe})
	dims, _, _ := g.of(c.ct.nd)
	ds, id, at := c.ct.open(fs, dims, g.stripe)
	v, _ := ds.Var(id)
	mem := pfs.NewMemBackend(ds.File().Size())
	if !written {
		copy(mem.Bytes()[v.Offset:], encodeRuns(at, v.Dims, []layout.Run{{Length: v.NumElems()}}))
	} else {
		img, w := storedOn(fs, ds, g.stripe, mem), mpi.NewWorld(env, g.ranks, fabric.Params{RanksPerNode: 4})
		slabs := cc.SplitSlab(layout.Slab{Start: make([]int64, len(dims)), Count: dims}, g.ranks)
		errs, comm := make([]error, g.ranks), w.Comm()
		w.Go(func(r *mpi.Rank) {
			slab := slabs[r.Rank()]
			vals := ncfile.DecodeValues(ncfile.Float32, encodeRuns(at, dims, layout.Flatten(dims, slab)), nil)
			errs[r.Rank()] = img.PutVaraAll(r, comm, fs.Client(r.Proc(), r.Rank(), nil), id, slab, vals, nil, adio.Params{CB: g.cb})
		})
		cc.AtProcs(4, func() {
			if err := errors.Join(env.Run(), errors.Join(errs...)); err != nil {
				d.t.Fatalf("%s: writing the image: %v", c, err)
			}
		})
	}
	d.images[key] = mem.Bytes()
	return mem.Bytes()
}

// run is one object I/O of op over slabs, each rank's, on a fresh machine
// of c's geometry holding c's content, stored in image when it is not nil,
// with c's fault plan.
func (d *differential) run(c readerCase, image []byte, slabs []layout.Slab, io cc.IO, op cc.Op) outcome {
	t, g := d.t, c.geo
	t.Helper()
	env := sim.NewEnv()
	w := mpi.NewWorld(env, g.ranks, fabric.Params{RanksPerNode: 4})
	fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: g.stripe})
	io.Params.CB, io.Params.PlanCache = g.cb, &adio.PlanCache{}
	if c.faults {
		fs.SlowOSTWindow(1, 8, 0, math.Inf(1))
		io.Params.Read = pfs.ReadPolicy{Timeout: 1e-3, Retries: 2, Backoff: 1e-4}
		io.Params.RebalanceRounds = 3
	}
	dims, _, _ := g.of(c.ct.nd)
	ds, id, _ := c.ct.open(fs, dims, g.stripe)
	if image != nil {
		ds = stored(fs, ds, g.stripe, image)
	}
	out := outcome{results: make([]cc.Result, g.ranks), consumers: make([]cc.Result, len(io.Consumers))}
	io.Stats, io.Consumers = &out.stats, slices.Clone(io.Consumers)
	for i := range io.Consumers {
		io.Consumers[i].OnResult = func(r cc.Result) { out.consumers[i] = r }
	}
	errs, comm := make([]error, g.ranks), w.Comm()
	w.Go(func(r *mpi.Rank) {
		my := io
		my.DS, my.VarID, my.Slab = ds, id, slabs[r.Rank()]
		out.results[r.Rank()], errs[r.Rank()] = cc.ObjectGetVara(r, comm, fs.Client(r.Proc(), r.Rank(), nil), my, op)
	})
	if err := errors.Join(env.Run(), errors.Join(errs...)); err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	out.makespan = env.Now()
	out.fs = [4]int64{fs.BytesRead, fs.Requests, fs.Timeouts, fs.Retries}
	out.net = [2]int64{w.Net().Messages, w.Net().BytesOnWire}
	return out
}

// reference is the one oracle: op's opaque twin run cold, at GOMAXPROCS 1,
// over c's image, by c's path with c's fault plan.
func (d *differential) reference(c readerCase, slabs []layout.Slab, io cc.IO, op cc.Op) outcome {
	key := fmt.Sprintf("%s/%s/%d/%v/%v/%T%+v/%v", c.ct.name, c.geo.name, c.path, c.faults, io.SecPerElem, op, op, slabs)
	out, ok := d.refs[key]
	if !ok {
		cc.AtProcs(1, func() { out = d.run(c, d.image(c, false), slabs, io, struct{ cc.Op }{op}) })
		d.refs[key] = out
	}
	return out
}

// tallied is an operator with a tally of its Absorb calls. It holds a
// pointer, so copies that share a tally share an OpKey.
type tallied struct {
	cc.Op
	calls *atomic.Int64
}

func (o tallied) Absorb(s cc.State, sub cc.Subset) cc.State {
	o.calls.Add(1)
	return o.Op.Absorb(s, sub)
}

// chargeOp is Sum whose partial result is a message of bytes.
type chargeOp struct {
	cc.Sum
	bytes int64
}

func (o chargeOp) StateBytes() int64 { return o.bytes }

// check runs case c and holds it to the reference. Every rank's result is
// the reference's for the question the operator asks (a window's, of the
// window split among the ranks). As a consumer of a Sum donor's pass, or as
// the primary and two consumers beside a Count (duplicate), every result is
// the reference's, the donor's and the Count's too, and the copies that
// share a component absorb once per subset. The charges are the twin's over
// the same slabs or, for a shared pass, those of one operator carrying every
// consumer's StateBytes and map cost.
func (d *differential) check(c readerCase) charges {
	t := d.t
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", c, r)
		}
	}()
	_, region, _ := c.geo.of(c.ct.nd)
	slabs := cc.SplitSlab(region, c.geo.ranks)
	io := paths[c.path].io
	io.SecPerElem = 2e-8
	// The operators run, and those whose questions their results answer.
	primary, cons, wantPrimary, wantCons := c.op, []cc.Op(nil), c.op, []cc.Op(nil)
	calls := new(atomic.Int64)
	switch c.sharing {
	case "consumer":
		primary, cons, wantPrimary, wantCons = cc.Sum{}, []cc.Op{c.op}, cc.Sum{}, []cc.Op{c.op}
	case "duplicate":
		primary = tallied{c.op, calls}
		cons, wantCons = []cc.Op{cc.Count{}, primary, primary}, []cc.Op{cc.Count{}, c.op, c.op}
	}
	cio, pio, pass := io, io, c.op // the case's descriptor, and its pass's
	if cons != nil {
		bytes := primary.StateBytes()
		for _, op := range cons {
			cio.Consumers = append(cio.Consumers, cc.Consumer{Op: op, SecPerElem: 1e-8})
			pio.SecPerElem += 1e-8
			bytes += op.StateBytes()
		}
		pass = chargeOp{bytes: bytes}
	}
	var got outcome
	var image []byte
	if c.image {
		image = d.image(c, true)
	}
	cc.AtProcs(c.procs, func() { got = d.run(c, image, slabs, cio, primary) })

	want := func(op cc.Op) outcome {
		if w, ok := op.(cc.WindowOp); ok {
			return d.reference(c, cc.SplitSlab(w.Window, c.geo.ranks), io, w.Op)
		}
		return d.reference(c, slabs, io, op)
	}
	for i, r := range want(wantPrimary).results {
		if !sameResult(got.results[i], r) {
			t.Errorf("%s: rank %d: %+v, reference %+v", c, i, got.results[i], r)
		}
	}
	for i, op := range wantCons {
		if r := want(op).results[0]; !sameResult(got.consumers[i], r) {
			t.Errorf("%s: consumer %d (%s): %+v, reference %+v", c, i, op.Name(), got.consumers[i], r)
		}
	}
	if c.sharing == "duplicate" && calls.Load() != got.stats.Subsets {
		t.Errorf("%s: three copies absorbed %d times, the pass made %d subsets", c, calls.Load(), got.stats.Subsets)
	}
	if ref := d.reference(c, slabs, pio, pass); got.charges != ref.charges {
		t.Errorf("%s: charges\n%+v\nreference\n%+v", c, got.charges, ref.charges)
	}
	if got.stats.MapElements != region.NumElems() {
		t.Errorf("%s: mapped %d elements, the region has %d", c, got.stats.MapElements, region.NumElems())
	}
	return got.charges
}

// scanVar is a content's variable on one of its scan grids.
type scanVar struct {
	name string
	ds   *ncfile.Dataset
	id   int
	at   ncfile.ValueFn
}

// backing is a scan variable's dataset, its generator or a MemBackend twin,
// and the bytes a fold of it is handed: nil, or the runs' bytes.
type backing struct {
	name string
	ds   *ncfile.Dataset
	raw  []byte
}

func scanVars() (vars []scanVar) {
	fs := pfs.New(sim.NewEnv(), pfs.Params{NumOSTs: 4})
	for _, ct := range contents {
		for _, dims := range ct.scan {
			ds, id, at := ct.open(fs, dims, 0)
			vars = append(vars, scanVar{fmt.Sprintf("%s%v", ct.name, dims), ds, id, at})
		}
	}
	return vars
}

// scanRuns returns the fold layer's run lists over v: 60 lists of one to
// three runs, each of one element, inside a row from mid-row, from mid-row
// across a row end, or across several short rows; and up to four pairs of
// one-element runs of one value, so that the least and the greatest are
// tied. The float32 rounding of the fields makes such pairs; they are looked
// for in the last 2^17 elements, past 2^32 along the rows, or in the rows'
// index, where either is that long.
func scanRuns(t *testing.T, v scanVar, rng *rand.Rand) [][]layout.Run {
	t.Helper()
	vr, _ := v.ds.Var(v.id)
	total, row := vr.NumElems(), vr.Dims[len(vr.Dims)-1]
	pick := func() layout.Run {
		start := rng.Int64N(total)
		var n int64
		switch rng.IntN(4) {
		case 0: // one element
			n = 1
		case 1: // inside a row, from mid-row
			n = 1 + rng.Int64N(min(row-start%row, 3000))
		case 2: // from mid-row across a row end
			start = (1+rng.Int64N(total/row-1))*row - 1 - rng.Int64N(min(row-1, 200))
			n = row - start%row + 1 + rng.Int64N(min(row, 200))
		default: // across several rows where rows are short
			n = 1 + rng.Int64N(3000)
		}
		return layout.Run{Offset: start, Length: min(n, total-start)}
	}
	var lists [][]layout.Run
	for i := 0; i < 60; i++ {
		runs := []layout.Run{pick()}
		for k := rng.IntN(3); k > 0; k-- {
			runs = append(runs, pick())
		}
		lists = append(lists, runs)
	}
	first, coords, ties := make(map[float64]int64), make([]int64, len(vr.Dims)), 0
	for e := total - min(total, 1<<17); e < total && ties < 4; e++ {
		x := ncfile.Float32Round(v.at(layout.OffsetToCoords(vr.Dims, e, coords)))
		if f, seen := first[x]; seen {
			lists, ties = append(lists, []layout.Run{{Offset: f, Length: 1}, {Offset: e, Length: 1}}), ties+1
		} else {
			first[x] = e
		}
	}
	if ties == 0 {
		t.Fatalf("%s: no two of the last 2^17 elements have one value", v.name)
	}
	return lists
}

// startFar is a state of op far from Zero(): a running sum 30 short of 2^46,
// or an extreme of extreme found at (7, 7, 7). From zero the order of a
// sum's additions cannot show: the values are float32s of like magnitude,
// whose sums float64 holds exactly. Past 2^46 a float64 keeps 1/64ths, so the
// sum rounds at every addition from the one that crosses 2^46 on. Extremes
// of 47.5, inside the climate fields' range, and 1000, inside the pressure
// field's, make some folds move the extreme and some keep it.
func startFar(op cc.Op, extreme float64) cc.State {
	const sum = 1<<46 - 30
	switch op.(type) {
	case cc.Sum:
		return float64(sum)
	case cc.Mean:
		return cc.MeanState{Sum: sum, N: 3}
	case cc.MinLoc, cc.MaxLoc:
		return cc.Loc{Val: extreme, Valid: true, Coords: []int64{7, 7, 7}}
	}
	return extreme
}

// scanLayer is the fold layer: over every scan grid, each operator folds
// each run list as the CC map folds an owner group's pieces (FoldRuns), from
// Zero(), from the state the list before ended in and, for the six that scan,
// from two states far from Zero(), over the generator and over the runs'
// bytes in a MemBackend twin of the variable. Both scan for exactly those
// six, and every fold gives the reference's state to the bit, Loc.Coords
// included: the twin's fold of the same bytes.
func (d *differential) scanLayer() {
	t := d.t
	rng := rand.New(rand.NewPCG(39, 2015))
	var w ncfile.Worker
	for _, v := range scanVars() {
		vr, _ := v.ds.Var(v.id)
		img := stored(pfs.New(sim.NewEnv(), pfs.Params{NumOSTs: 4}), v.ds, 0, nil)
		whole := layout.Slab{Start: make([]int64, len(vr.Dims)), Count: vr.Dims}
		ops := operators(whole, whole)
		prev := make([]cc.State, len(ops))
		for i, op := range ops {
			prev[i] = op.Zero()
		}
		for _, runs := range scanRuns(t, v, rng) {
			raw := encodeRuns(v.at, vr.Dims, runs)
			for i, op := range ops {
				starts := []cc.State{op.Zero(), prev[i]}
				if slices.Contains(scanOps, op) {
					starts = append(starts, startFar(op, 47.5), startFar(op, 1000))
				}
				for _, st := range starts {
					want, _ := cc.FoldRuns(&w, img, v.id, runs, struct{ cc.Op }{op}, st, raw)
					for _, b := range []backing{{"generator", v.ds, nil}, {"image", img, raw}} {
						got, scanned := cc.FoldRuns(&w, b.ds, v.id, runs, op, st, b.raw)
						if scanned != slices.Contains(scanOps, op) || render(got) != render(want) {
							t.Fatalf("%s/%s/scan/%s from %s over runs %v: %s (scanned %v), reference %s",
								v.name, b.name, op.Name(), render(st), runs, render(got), scanned, render(want))
						}
					}
					prev[i] = want
				}
			}
		}
	}
}

// The differential runs as five tests, one to a layer: the fold layer, and
// the end-to-end table split by reader path and sharing mode. A failure names
// its case.

// TestScansMatchAbsorb is the fold layer (scanLayer).
func TestScansMatchAbsorb(t *testing.T) {
	(&differential{t: t, images: map[string][]byte{}, refs: map[string]outcome{}}).scanLayer()
}

// TestValuePathMatchesBytePathEndToEnd is the table's cold cases on the
// collective-computing paths: the generator and its MemBackend image.
func TestValuePathMatchesBytePathEndToEnd(t *testing.T) {
	endToEnd(t, func(c readerCase) bool { return paths[c.path].cc && c.sharing == "cold" })
}

// TestTraditionalFoldIsOneAbsorb is the table's traditional and independent
// cases: the long rows' chunks across a row end, folded beside the
// simulation at GOMAXPROCS 4.
func TestTraditionalFoldIsOneAbsorb(t *testing.T) {
	endToEnd(t, func(c readerCase) bool { return !paths[c.path].cc })
}

// TestConsumersBitIdenticalToColdRuns is the table's consumer cases: every
// operator as a follower of a Sum donor's pass.
func TestConsumersBitIdenticalToColdRuns(t *testing.T) {
	endToEnd(t, func(c readerCase) bool { return c.sharing == "consumer" })
}

// TestDuplicateConsumersShareOneComponent is the table's duplicate cases:
// three copies of an operator beside a Count share one component.
func TestDuplicateConsumersShareOneComponent(t *testing.T) {
	endToEnd(t, func(c readerCase) bool { return c.sharing == "duplicate" })
}

// endToEnd checks the cases of the table that keep selects. The fault plan
// must bite among them: some read times out and some read is rebalanced.
func endToEnd(t *testing.T, keep func(readerCase) bool) {
	d := &differential{t: t, images: map[string][]byte{}, refs: map[string]outcome{}}
	var n int
	var timeouts, rebalanced bool
	for _, c := range readerCases() {
		if !keep(c) {
			continue
		}
		ch := d.check(c)
		n++
		timeouts = timeouts || ch.fs[2] > 0
		rebalanced = rebalanced || ch.stats.Rebalances > 0
	}
	if !timeouts || !rebalanced {
		t.Errorf("the fault plan never bit in %d cases: timeouts %v, rebalances %v", n, timeouts, rebalanced)
	}
}

// TestZeroAllocScanRow: a warm scan of one row, by every production
// generator and over the row's bytes in a MemBackend twin, by every fold,
// allocates nothing.
func TestZeroAllocScanRow(t *testing.T) {
	var w ncfile.Worker
	for _, v := range scanVars() {
		vr, _ := v.ds.Var(v.id)
		row := min(vr.Dims[len(vr.Dims)-1], 1024)
		runs := []layout.Run{{Offset: vr.NumElems() - row, Length: row}}
		img := stored(pfs.New(sim.NewEnv(), pfs.Params{NumOSTs: 4}), v.ds, 0, nil)
		raw := encodeRuns(v.at, vr.Dims, runs)
		for _, b := range []backing{{"generator", v.ds, nil}, {"image", img, raw}} {
			for _, kind := range []ncfile.AccKind{ncfile.AccSum, ncfile.AccMin, ncfile.AccMax} {
				acc := ncfile.Acc{Kind: kind}
				b.ds.Scan(&w, v.id, runs, b.raw, &acc) // warm-up
				if allocs := testing.AllocsPerRun(100, func() { b.ds.Scan(&w, v.id, runs, b.raw, &acc) }); allocs != 0 {
					t.Errorf("%s/%s, fold %d: %v allocs per scan of a row, want 0", v.name, b.name, kind, allocs)
				}
			}
		}
	}
}
