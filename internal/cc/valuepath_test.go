package cc

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/adio"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// unroundedAt is a dataset content whose values no float32 holds exactly, so
// a value path that forgot the element type's rounding disagrees with the
// bytes in (nearly) every element.
func unroundedAt(coords []int64) float64 {
	var h int64 = 1469598103934665603
	for _, c := range coords {
		h ^= c
		h *= 1099511628211
	}
	return float64(h%100003) / 7
}

// twinGeometry is the machine and file of the value-path differential: six
// ranks on two nodes (two default aggregators), 256-byte stripes over four
// OSTs so the 3.7 KB variable spans fifteen stripes, and two access regions
// inside 8x9x13: one of partial rows, so every run starts and ends mid-row,
// and one of whole rows, whose five-row runs the 128-element collective-buffer
// windows cut mid-row into pieces that go on across row ends.
var twinGeometry = struct {
	ranks   int
	ty      ncfile.Type
	dims    []int64
	regions []layout.Slab
	window  layout.Slab
}{
	ranks: 6,
	ty:    ncfile.Float32,
	dims:  []int64{8, 9, 13},
	regions: []layout.Slab{
		{Start: []int64{1, 0, 2}, Count: []int64{6, 9, 9}},
		{Start: []int64{1, 2, 0}, Count: []int64{6, 5, 13}},
	},
	window: layout.Slab{Start: []int64{2, 3, 4}, Count: []int64{3, 4, 5}},
}

// newTwin builds the twin geometry's machine over a dataset with unroundedAt
// contents (see newValueBed), in 256-byte stripes.
func newTwin(t *testing.T, image []byte, slowOST bool) *testbed {
	t.Helper()
	g := twinGeometry
	return newValueBed(t, g.ranks, g.ty, g.dims, 256, image, slowOST)
}

// newValueBed builds n ranks, four per node, over a variable of type ty and
// dims with unroundedAt contents, striped over four OSTs in stripes of stripe
// bytes: served by a generator when image is nil, else from a MemBackend
// holding image (the same file's bytes, see imageOf). slowOST injects the
// fault plan's straggler.
func newValueBed(t *testing.T, n int, ty ncfile.Type, dims []int64, stripe int64, image []byte, slowOST bool) *testbed {
	t.Helper()
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 4})
	fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: stripe})
	if slowOST {
		fs.SlowOSTWindow(1, 8, 0, math.Inf(1))
	}
	var s ncfile.Schema
	id, err := s.AddVar("v", ty, dims)
	if err != nil {
		t.Fatal(err)
	}
	var ds *ncfile.Dataset
	if image == nil {
		ds, err = ncfile.SynthDataset(fs, "data", &s, []ncfile.ValueFn{unroundedAt}, 4, 0, 0)
	} else {
		mem := pfs.NewMemBackend(0)
		if ds, err = ncfile.Create(fs, "data", &s, mem, 4, 0, 0); err == nil {
			v, _ := ds.Var(id)
			mem.WriteAt(image[v.Offset:v.Offset+v.Bytes()], v.Offset)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{env: env, w: w, c: w.Comm(), fs: fs, ds: ds, id: id}
}

// synthImage is the twin geometry's file image (see imageOf).
func synthImage(t *testing.T) []byte {
	t.Helper()
	return imageOf(newTwin(t, nil, false))
}

// imageOf is the bytes of tb's generator-served file, built without the
// generator path: the value function element by element through
// EncodeValues. The value path and the synthetic backend share their row
// walk, so bytes read back through the backend could not tell a fault in it.
func imageOf(tb *testbed) []byte {
	v, _ := tb.ds.Var(tb.id)
	vals := make([]float64, v.NumElems())
	coords := make([]int64, len(v.Dims))
	for e := range vals {
		vals[e] = unroundedAt(layout.OffsetToCoords(v.Dims, int64(e), coords))
	}
	image := make([]byte, tb.ds.File().Size())
	copy(image[v.Offset:], ncfile.EncodeValues(v.Type, vals))
	return image
}

// twinOutcome is everything a run exposes that the choice of value source
// must not move.
type twinOutcome struct {
	results   []Result
	consumers []Result
	makespan  float64
	stats     Stats
	bytesRead int64
	requests  int64
	timeouts  int64
	retries   int64
	messages  int64 // fabric: every message sent
	wireBytes int64 // fabric: inter-node bytes
}

// TestValuePathMatchesBytePathEndToEnd runs every operator under every way an
// object I/O reaches its values — collective computing in both reduce modes,
// the traditional collective read (Block), each blocking and pipelined, and
// independent sieved reads — with and without a fault plan (a straggling OST
// met by timeout/retry and rebalanced rounds), once on a generator-backed
// dataset — the value path: charge-only reads, no extent or request bytes
// materialised, nothing decoded — and once on a MemBackend copy of the same
// bytes — the byte path — and demands identical results to the bit, virtual
// makespan, cc.Stats, and file-system and fabric counters. It fails if
// ncfile's value path drops the Float32 rounding (the sums differ in the low
// bits), the clipping of a run to its row (the second region's pieces start
// mid-row and cross row ends), or the position of a run within a multi-run
// slab (the first region gives every rank nine partial rows), and if a
// charge-only read charges anything differently from the read that moves bytes.
func TestValuePathMatchesBytePathEndToEnd(t *testing.T) {
	g := twinGeometry
	image := synthImage(t)
	hist := Histogram{Lo: -15000, Hi: 15000, Bins: 9}
	ops := []Op{Sum{}, Mean{}, hist, MinLoc{}, Variance{},
		PerIndex{Inner: Max{}, Keys: 1}, Fuse{Ops: []Op{Sum{}, MaxLoc{}}}}

	run := func(image []byte, slabs []layout.Slab, io IO, op Op, faults, consumers bool) twinOutcome {
		tb := newTwin(t, image, faults)
		var out twinOutcome
		io.Stats = &out.stats
		io.Params.PlanCache = &adio.PlanCache{}
		if faults {
			io.Params.Read = pfs.ReadPolicy{Timeout: 1e-3, Retries: 2, Backoff: 1e-4}
			io.Params.RebalanceRounds = 3
		}
		if consumers {
			out.consumers = make([]Result, 2)
			io.Consumers = []Consumer{
				{Op: MinLoc{}, OnResult: func(r Result) { out.consumers[0] = r }},
				{Op: WindowOp{Op: hist, Window: g.window}, SecPerElem: 1e-8,
					OnResult: func(r Result) { out.consumers[1] = r }},
			}
		}
		out.results = runObjectGetVara(t, tb, slabs, io, op)
		out.makespan = tb.env.Now()
		out.bytesRead, out.requests = tb.fs.BytesRead, tb.fs.Requests
		out.timeouts, out.retries = tb.fs.Timeouts, tb.fs.Retries
		out.messages, out.wireBytes = tb.w.Net().Messages, tb.w.Net().BytesOnWire
		return out
	}

	// The sieve threshold (independent reads only) is below the first
	// region's 16-byte gaps between partial rows, so the sieve leaves holes.
	type protocol struct {
		name string
		io   IO
		cc   bool // the collective-computing path: maps in place, takes consumers
	}
	var protocols []protocol
	for _, pipeline := range []bool{true, false} {
		p := adio.Params{CB: 512, Pipeline: pipeline}
		for _, reduce := range []ReduceMode{AllToOne, AllToAll} {
			protocols = append(protocols, protocol{fmt.Sprintf("cc/reduce=%d/pipeline=%v", reduce, pipeline),
				IO{Reduce: reduce, Params: p}, true})
		}
		protocols = append(protocols, protocol{fmt.Sprintf("block/pipeline=%v", pipeline),
			IO{Block: true, Params: p}, false})
	}
	protocols = append(protocols, protocol{"independent",
		IO{Mode: Independent, Params: adio.Params{SieveThreshold: 8}}, false})

	var sawTimeout, sawRebalance, sawTradTimeout bool
	for ri, region := range g.regions {
		slabs := splitSlab(region, g.ranks)
		for i, op := range ops {
			for _, pr := range protocols {
				for _, faults := range []bool{false, true} {
					// The last operator also carries piggybacked consumers.
					consumers := pr.cc && i == len(ops)-1
					name := fmt.Sprintf("region %d/%s/%s/faults=%v", ri, op.Name(), pr.name, faults)
					io := pr.io
					io.SecPerElem = 2e-8
					vals := run(nil, slabs, io, op, faults, consumers)
					byts := run(image, slabs, io, op, faults, consumers)
					if diff := vals.diff(byts); diff != "" {
						t.Errorf("%s: value path vs byte path: %s", name, diff)
					}
					if vals.stats.MapElements != region.NumElems() {
						t.Errorf("%s: mapped %d elements, region has %d", name, vals.stats.MapElements, region.NumElems())
					}
					sawTimeout = sawTimeout || vals.timeouts > 0
					sawRebalance = sawRebalance || vals.stats.Rebalances > 0
					sawTradTimeout = sawTradTimeout || (!pr.cc && vals.timeouts > 0)
				}
			}
		}
	}
	if !sawTimeout || !sawRebalance || !sawTradTimeout {
		t.Errorf("fault plan never bit: timeouts seen %v (on a traditional read %v), rebalances seen %v",
			sawTimeout, sawTradTimeout, sawRebalance)
	}
}

// diff names the first field in which two outcomes differ, or "".
func (a twinOutcome) diff(b twinOutcome) string {
	sameResult := func(x, y Result) bool {
		return math.Float64bits(x.Value) == math.Float64bits(y.Value) &&
			x.Root == y.Root && reflect.DeepEqual(x.State, y.State)
	}
	for i := range a.results {
		if !sameResult(a.results[i], b.results[i]) {
			return fmt.Sprintf("rank %d result %+v != %+v", i, a.results[i], b.results[i])
		}
	}
	for i := range a.consumers {
		if !sameResult(a.consumers[i], b.consumers[i]) {
			return fmt.Sprintf("consumer %d result %+v != %+v", i, a.consumers[i], b.consumers[i])
		}
	}
	switch {
	case math.Float64bits(a.makespan) != math.Float64bits(b.makespan):
		return fmt.Sprintf("makespan %v != %v", a.makespan, b.makespan)
	case a.stats != b.stats:
		return fmt.Sprintf("stats %+v != %+v", a.stats, b.stats)
	case a.bytesRead != b.bytesRead || a.requests != b.requests:
		return fmt.Sprintf("fs read %d B in %d requests != %d B in %d", a.bytesRead, a.requests, b.bytesRead, b.requests)
	case a.timeouts != b.timeouts || a.retries != b.retries:
		return fmt.Sprintf("fs timeouts/retries %d/%d != %d/%d", a.timeouts, a.retries, b.timeouts, b.retries)
	case a.messages != b.messages || a.wireBytes != b.wireBytes:
		return fmt.Sprintf("fabric %d messages, %d B on the wire != %d, %d B", a.messages, a.wireBytes, b.messages, b.wireBytes)
	}
	return ""
}

// TestMapNeverCutsAnElement: file domains and collective-buffer windows are
// placed in bytes, but the map consumes whole elements. Three aggregators
// over a 1540-byte hull, and buffer sizes that are no multiple of the element
// size, used to cut float32 elements and silently fold garbage.
func TestMapNeverCutsAnElement(t *testing.T) {
	dims := []int64{7, 5, 11}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{7, 5, 11}}
	const n = 8
	slabs := splitSlab(whole, n)
	want := Sum{}.Value(truth(Sum{}, dims, slabs))
	for _, aggrs := range [][]int{nil, {0, 1, 2}} {
		for _, cb := range []int64{128, 129, 1001, 3} {
			for _, rounds := range []int{0, 3} {
				tb := newTestbed(t, n, ncfile.Float32, dims)
				io := IO{Reduce: AllToOne, Aggregators: aggrs,
					Params: adio.Params{CB: cb, Align: 6, PlanCache: &adio.PlanCache{},
						RebalanceRounds: rounds}}
				if rounds == 0 {
					io.Params.Align = 0
				}
				res := runObjectGetVara(t, tb, slabs, io, Sum{})
				if res[0].Value != want {
					t.Errorf("aggregators %v, cb %d, rounds %d: sum %v, want %v", aggrs, cb, rounds, res[0].Value, want)
				}
			}
		}
	}
}

// TestZeroAllocCCTransformSynthetic: the transform's value step — everything
// between an aggregator iteration and the operator's Absorb — allocates
// nothing in steady state on a generator-backed dataset (no extent, no decode
// buffer), and nothing on the byte path either once its scratch has grown.
func TestZeroAllocCCTransformSynthetic(t *testing.T) {
	image := synthImage(t)
	for _, img := range [][]byte{nil, image} {
		tb := newTwin(t, img, false)
		v, _ := tb.ds.Var(tb.id)
		synthetic := tb.ds.Synthetic()
		if synthetic != (img == nil) {
			t.Fatalf("synthetic = %v for image %v", synthetic, img != nil)
		}
		// One piece: elements [20, 420) of the variable, inside an extent
		// that starts three elements earlier.
		sz := v.Type.Size()
		elemRun := layout.Run{Offset: 20, Length: 400}
		pc := layout.Run{Offset: v.Offset + 20*sz, Length: 400 * sz}
		it := &adio.Iter{ReadLo: pc.Offset - 3*sz, ReadHi: pc.End()}
		var raw []byte
		if !synthetic {
			ext := image[it.ReadLo:it.ReadHi]
			raw = ext[pc.Offset-it.ReadLo : pc.End()-it.ReadLo]
		}
		var sum float64
		var scratch []float64
		step := func() {
			scratch = tb.ds.Values(tb.id, []layout.Run{elemRun}, raw, scratch)
			for _, x := range scratch {
				sum += x
			}
		}
		step() // warm-up grows the scratch
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Errorf("synthetic=%v: %v allocs per value step, want 0", synthetic, allocs)
		}
	}
}

// allocBed is the machine of the allocation bounds: eight ranks on two nodes
// (two aggregators) over a 512 Ki-element float32 variable of dims (64 rows
// of 128 elements, in 64 planes, unless a test changes the row length) —
// generator-backed, or the same contents held in a MemBackend — each rank
// reading an eighth of it through 256 KiB collective buffers.
type allocBed struct {
	tb    *testbed
	slabs []layout.Slab
	elems uint64
}

const allocBedCB = 256 << 10

var allocBedDims = []int64{64, 64, 128}

func newAllocBed(t *testing.T, memBacked bool, dims []int64) *allocBed {
	t.Helper()
	const n = 8
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 4})
	fs := pfs.New(env, pfs.Params{NumOSTs: 4})
	var s ncfile.Schema
	id, _ := s.AddVar("v", ncfile.Float32, dims)
	var ds *ncfile.Dataset
	var err error
	if memBacked {
		mem := pfs.NewMemBackend(0)
		if ds, err = ncfile.Create(fs, "data", &s, mem, 4, 0, 0); err == nil {
			v, _ := ds.Var(id)
			vals := make([]float64, v.NumElems())
			coords := make([]int64, len(dims))
			for e := range vals {
				vals[e] = unroundedAt(layout.OffsetToCoords(dims, int64(e), coords))
			}
			mem.WriteAt(ncfile.EncodeValues(v.Type, vals), v.Offset)
		}
	} else {
		ds, err = ncfile.SynthDataset(fs, "data", &s, []ncfile.ValueFn{unroundedAt}, 4, 0, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: dims}
	return &allocBed{tb: &testbed{env: env, w: w, c: w.Comm(), fs: fs, ds: ds, id: id},
		slabs: splitSlab(whole, n), elems: uint64(whole.NumElems())}
}

// steadyAlloc returns the bytes and the objects one whole object I/O
// allocates, measured on the second of two passes so scratches and pooled
// messages have grown.
func (b *allocBed) steadyAlloc(t *testing.T, io IO) (bytes, mallocs uint64) {
	t.Helper()
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := runObjectGetVara(t, b.tb, b.slabs, io, Sum{})
		runtime.ReadMemStats(&after)
		if res[0].Value == 0 {
			t.Fatal("empty result")
		}
		bytes, mallocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	}
	return bytes, mallocs
}

// allocSlack covers what does not scale with the data: plans, messages, the
// rank goroutines' bookkeeping.
const allocSlack = 1 << 20

// mallocSlack covers the objects two runs of one leg may differ by: under
// the race detector a dropped sync.Pool put is a new shuffle message, and
// the host workers' goroutines come and go. Measured: within 25 either way.
const mallocSlack = 64

// overBound reports whether got exceeds bound. Under the race detector it
// never does: each sync.Pool put the detector drops makes the next adio
// shuffle message grow a new buffer, which no bound on the code can cover.
// The passes still run, so -race sees the workers.
func overBound(got, bound uint64) bool { return !raceEnabled && got > bound }

// TestTraditionalLegAllocBound: a traditional (Block) object I/O over a
// generator-backed dataset allocates nothing that scales with the data beyond
// the value scratch its ranks share (one rank's values; each rank folds them
// before it next yields): its reads are charge-only, so there are no request
// bytes and no collective buffers. Over a MemBackend — the byte path — the
// request bytes (every rank's byte buffer) and the aggregators' collective
// buffers are what a read of real bytes costs, and still no per-element
// float64 term comes on top.
func TestTraditionalLegAllocBound(t *testing.T) {
	io := IO{Block: true, Params: adio.Params{CB: allocBedCB}}
	b := newAllocBed(t, false, allocBedDims)
	got, _ := b.steadyAlloc(t, io)
	scratch := 8 * b.elems / uint64(len(b.slabs))
	if bound := scratch + allocSlack; overBound(got, bound) {
		t.Errorf("traditional leg over %d generated elements allocated %d B, bound %d B (shared value scratch %d + slack %d); request bytes would add %d",
			b.elems, got, bound, scratch, allocSlack, 4*b.elems)
	}

	b = newAllocBed(t, true, allocBedDims)
	got, _ = b.steadyAlloc(t, io)
	requestBytes := b.elems * 4
	collective := uint64(2 * allocBedCB) // two aggregators, one buffer each
	if bound := requestBytes + collective + allocSlack; overBound(got, bound) {
		t.Errorf("traditional leg over %d stored elements allocated %d B, bound %d B (request %d + collective %d + slack %d); a per-element float64 term would add %d",
			b.elems, got, bound, requestBytes, collective, allocSlack, 8*b.elems)
	}
}

// TestCCLegSyntheticAllocBound: collective computing over a generator-backed
// dataset allocates each aggregator's value scratch (8 bytes per element of
// its largest piece) and nothing that scales with the extents read: no
// collective buffers (the pipelined protocol would hold two per aggregator)
// and no request bytes.
func TestCCLegSyntheticAllocBound(t *testing.T) {
	b := newAllocBed(t, false, allocBedDims)
	got, _ := b.steadyAlloc(t, IO{Reduce: AllToOne, Params: adio.Params{CB: allocBedCB, Pipeline: true}})
	scratch := uint64(2 * 8 * allocBedCB / 4) // two aggregators, a buffer's worth of float32 elements each
	if bound := scratch + allocSlack; overBound(got, bound) {
		t.Fatalf("cc leg over %d elements allocated %d B, bound %d B (value scratch %d + slack %d); materialised extents would add %d",
			b.elems, got, bound, scratch, allocSlack, 4*allocBedCB)
	}
}

// TestCCLegMallocsAllocBound: the objects a collective-computing leg
// allocates do not grow with the rows per piece. The logical map walks every
// piece row by row (layout.SlabScratch.RunToSlabs), so anything allocated
// per row would show here: the bed with rows eight times shorter has eight
// times the rows in every piece, and the same pieces, subsets and messages.
func TestCCLegMallocsAllocBound(t *testing.T) {
	io := IO{Reduce: AllToOne, Params: adio.Params{CB: allocBedCB, Pipeline: true}}
	long := allocBedDims
	short := []int64{long[0], long[1] * 8, long[2] / 8}
	_, base := newAllocBed(t, false, long).steadyAlloc(t, io)
	_, got := newAllocBed(t, false, short).steadyAlloc(t, io)
	t.Logf("mallocs: %d rows of %d, %d; %d rows of %d, %d", long[0]*long[1], long[2], base, short[0]*short[1], short[2], got)
	extraRows := uint64(short[0]*short[1] - long[0]*long[1])
	if bound := base + mallocSlack; got > bound {
		t.Errorf("cc leg over %d rows allocated %d objects, bound %d (the leg over %d rows %d + slack %d); a slice per row would add %d",
			short[0]*short[1], got, bound, long[0]*long[1], base, mallocSlack, extraRows)
	}
}

// TestTraditionalLegMallocsAllocBound: the objects a traditional leg
// allocates do not grow with the units its fold is cut into. The bed with
// eight times the time steps per rank has eight times the units (one time
// step of 64 rows each), and read through collective buffers eight times as
// large it has the same pieces and messages; so anything the fold allocated
// per unit would show here. What Sum allocates itself, a boxed state per
// Absorb, comes on top and is counted.
func TestTraditionalLegMallocsAllocBound(t *testing.T) {
	const grow = 8
	few := allocBedDims
	many := []int64{few[0] * grow, few[1], few[2]}
	io := IO{Block: true, Params: adio.Params{CB: allocBedCB}}
	_, base := newAllocBed(t, false, few).steadyAlloc(t, io)
	io.Params.CB *= grow
	b := newAllocBed(t, false, many)
	_, got := b.steadyAlloc(t, io)

	// Each rank's eighth of a bed is an eighth of its time steps, of 64x128
	// elements, one unit each: the ranks together fold a unit per step.
	extraUnits := uint64(many[0] - few[0])
	sub := Subset{Slab: b.slabs[0], Data: make([]float64, 64*128)}
	for i := range sub.Data {
		sub.Data[i] = 1.5 // a sum the runtime has no preallocated box for
	}
	st := Sum{}.Zero()
	perAbsorb := uint64(testing.AllocsPerRun(100, func() { st = Sum{}.Absorb(st, sub) }) + 0.5)
	t.Logf("mallocs: %d units, %d; %d units, %d (Sum: %d per Absorb)",
		few[0], base, many[0], got, perAbsorb)
	if bound := base + mallocSlack + extraUnits*perAbsorb; got > bound {
		t.Errorf("traditional leg over %d units allocated %d objects, bound %d (the leg over %d units %d + slack %d + Sum's own %d); an object per unit would add %d",
			many[0], got, bound, few[0], base, mallocSlack, extraUnits*perAbsorb, extraUnits)
	}
}
