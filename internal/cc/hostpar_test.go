package cc

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adio"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/pfs"
)

// parGeometry is the machine of the host-parallelism tests: eight ranks on
// two nodes (two default aggregators) over a 16x128x256 float32 variable
// whose rows the ranks split unevenly, read through 512 KiB collective
// buffers. Each aggregator then folds two 128 Ki-element iterations of eight
// owner groups, four times host.Grain each, so the map's host phase runs on
// worker goroutines whenever GOMAXPROCS allows; the groups differ in size, so
// charging them in any order but the groups' own would move the clock's
// rounding. Most ranks' traditional reads are several Grain-element units of
// Dataset.Values.
var parGeometry = struct {
	rows   []int64 // of each time step, per rank
	dims   []int64
	stripe int64
	cb     int64
	window layout.Slab
}{
	rows:   []int64{4, 28, 8, 24, 12, 20, 16, 16},
	dims:   []int64{16, 128, 256},
	stripe: 64 << 10,
	cb:     512 << 10,
	window: layout.Slab{Start: []int64{2, 30, 40}, Count: []int64{5, 60, 100}},
}

// parSlabs gives each rank its rows of every time step.
func parSlabs() []layout.Slab {
	g := parGeometry
	slabs := make([]layout.Slab, len(g.rows))
	var y int64
	for r, n := range g.rows {
		slabs[r] = layout.Slab{Start: []int64{0, y, 0}, Count: []int64{g.dims[0], n, g.dims[2]}}
		y += n
	}
	return slabs
}

// atProcs runs f at GOMAXPROCS n and restores the previous setting.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestParGeometryTakesTheParallelPath pins the premise of the differential
// below: every aggregator iteration of parGeometry holds at least host.Grain
// elements in more than one owner group.
func TestParGeometryTakesTheParallelPath(t *testing.T) {
	g := parGeometry
	tb := newValueBed(t, len(g.rows), ncfile.Float32, g.dims, g.stripe, nil, false)
	reqs := make([][]layout.Run, len(g.rows))
	for r, slab := range parSlabs() {
		runs, err := tb.ds.ByteRuns(tb.id, slab)
		if err != nil {
			t.Fatal(err)
		}
		reqs[r] = runs
	}
	pl := adio.BuildPlan(reqs, adio.DefaultAggregators(len(g.rows), 4), g.cb, 4)
	var iters int
	for a, its := range pl.Iters {
		for k, it := range its {
			owners, bytes := 0, int64(0)
			for i, pc := range it.Pieces {
				if i == 0 || pc.Owner != it.Pieces[i-1].Owner {
					owners++
				}
				bytes += pc.Run.Length
			}
			if bytes/4 < host.Grain || owners < 2 {
				t.Errorf("aggregator %d iteration %d: %d elements in %d owner groups", a, k, bytes/4, owners)
			}
			iters++
		}
	}
	if iters == 0 {
		t.Fatal("plan has no iterations")
	}
}

// TestHostParallelismMovesNothing is the determinism contract of the map's
// host phase: with the parallel path taken (GOMAXPROCS 4, parGeometry), every
// operator, both reduce modes and the traditional leg, over a generator and
// over its MemBackend twin, healthy and with a straggling OST met by
// timeout/retry and three rebalanced rounds, give the GOMAXPROCS=1 run's
// results and consumer results to the bit, its makespan, and every cc.Stats
// field and fs/fabric counter.
func TestHostParallelismMovesNothing(t *testing.T) {
	g := parGeometry
	image := imageOf(newValueBed(t, len(g.rows), ncfile.Float32, g.dims, g.stripe, nil, false))
	hist := Histogram{Lo: -15000, Hi: 15000, Bins: 9}
	ops := []Op{Sum{}, Mean{}, hist, MinLoc{}, Variance{},
		PerIndex{Inner: Max{}, Keys: g.dims[0]}, Fuse{Ops: []Op{Sum{}, MaxLoc{}}}}
	slabs := parSlabs()

	run := func(procs int, image []byte, io IO, op Op, faults, consumers bool) (out twinOutcome) {
		atProcs(procs, func() {
			tb := newValueBed(t, len(g.rows), ncfile.Float32, g.dims, g.stripe, image, faults)
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
		})
		return out
	}

	p := adio.Params{CB: g.cb, Pipeline: true}
	legs := []struct {
		name string
		io   IO
	}{
		{"cc/all-to-one", IO{Reduce: AllToOne, Params: p}},
		{"cc/all-to-all", IO{Reduce: AllToAll, Params: p}},
		{"traditional", IO{Block: true, Params: p}},
	}
	var sawRebalance bool
	for i, op := range ops {
		for _, leg := range legs {
			for _, faults := range []bool{false, true} {
				for _, img := range [][]byte{nil, image} {
					consumers := !leg.io.Block && i == len(ops)-1
					name := fmt.Sprintf("%s/%s/faults=%v/membackend=%v", op.Name(), leg.name, faults, img != nil)
					io := leg.io
					io.SecPerElem = 2e-8
					ref := run(1, img, io, op, faults, consumers)
					par := run(4, img, io, op, faults, consumers)
					if diff := par.diff(ref); diff != "" {
						t.Errorf("%s: GOMAXPROCS=4 vs 1: %s", name, diff)
					}
					sawRebalance = sawRebalance || ref.stats.Rebalances > 0
				}
			}
		}
	}
	if !sawRebalance {
		t.Error("the fault plan never rebalanced a round")
	}
}

// panicOp panics in Absorb on the subset that holds element (5, 64, 0),
// rank 4's first of time step 5: on the CC leg a fold on the host phase's
// workers, on the traditional leg one of rank 4's units, folded by whichever
// of its host workers holds the fold.
type panicOp struct{ Sum }

type opPanic struct{ step int64 }

func (panicOp) Absorb(s State, sub Subset) State {
	in := true
	for d, x := range []int64{5, 64, 0} {
		in = in && sub.Slab.Start[d] <= x && x < sub.Slab.Start[d]+sub.Slab.Count[d]
	}
	if in {
		panic(opPanic{5})
	}
	return Sum{}.Absorb(s, sub)
}

// TestWorkerPanicReachesRunCaller: a panic in an operator's Absorb on a host
// worker is re-raised on the rank's goroutine, so it unwinds out of Env.Run
// in Run's caller with its value, as a panic in a process body does, instead
// of killing the binary from a goroutine nobody can recover on — on the CC
// leg in both reduce modes and on the traditional leg's pipelined fold
// through either read, where the other workers must not wait for a unit
// the panicking one will never fold.
func TestWorkerPanicReachesRunCaller(t *testing.T) {
	g := parGeometry
	legs := []struct {
		name string
		io   IO
	}{
		{"cc/all-to-one", IO{Reduce: AllToOne}},
		{"cc/all-to-all", IO{Reduce: AllToAll}},
		{"traditional/collective", IO{Block: true}},
		{"traditional/independent", IO{Mode: Independent}},
	}
	for _, leg := range legs {
		atProcs(4, func() {
			tb := newValueBed(t, len(g.rows), ncfile.Float32, g.dims, g.stripe, nil, false)
			slabs := parSlabs()
			tb.w.Go(func(r *mpi.Rank) {
				io := leg.io
				io.DS, io.VarID, io.Slab = tb.ds, tb.id, slabs[r.Rank()]
				io.Params = adio.Params{CB: g.cb}
				ObjectGetVara(r, tb.c, tb.fs.Client(r.Proc(), r.Rank(), nil), io, panicOp{})
			})
			defer func() {
				if r := recover(); r != (opPanic{5}) {
					t.Errorf("%s: recovered %#v from Run, want %#v", leg.name, r, opPanic{5})
				}
			}()
			err := tb.env.Run()
			t.Errorf("%s: Run returned %v past a panicking operator", leg.name, err)
		})
	}
}
