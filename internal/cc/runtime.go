package cc

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/adio"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// Mode selects the I/O strategy of an object I/O (paper Figure 6,
// io.mode).
type Mode uint8

const (
	// Collective uses two-phase collective I/O.
	Collective Mode = iota
	// Independent uses per-rank I/O with data sieving; collective computing
	// does not apply (there is no shuffle to optimize), so the computation
	// runs after the read as in the traditional workflow.
	Independent
)

// ReduceMode selects how intermediate results are reduced (paper §III-C).
type ReduceMode uint8

const (
	// AllToOne ships every intermediate result to the root at the end; the
	// per-process partials are constructed and reduced there.
	AllToOne ReduceMode = iota
	// AllToAll shuffles intermediate results to their owning processes
	// during the second phase (mirroring the raw shuffle's message
	// pattern); each process reduces locally, then a final reduce gathers
	// the per-process results at the root.
	AllToAll
)

// IO is the object I/O descriptor: the access region, the I/O mode, and the
// runtime knobs, grouped as in paper Figure 6. The computation (Op) is
// passed alongside to ObjectGetVara, mirroring
// ncmpi_object_get_vara_float(io, op).
type IO struct {
	DS    *ncfile.Dataset
	VarID int
	// Slab is this rank's access region (start/count per dimension).
	Slab layout.Slab
	// Mode selects collective vs independent I/O.
	Mode Mode
	// Block, when true, disables collective computing: I/O completes first,
	// then the computation runs — the traditional MPI workflow of paper
	// Figure 5 and the baseline of every experiment.
	Block bool
	// Reduce selects all-to-one or all-to-all intermediate reduction.
	Reduce ReduceMode
	// Aggregators lists aggregator comm ranks; nil = one per node.
	Aggregators []int
	// Root is the comm rank receiving the final result.
	Root int
	// Params tunes the underlying read protocol, straggler handling included
	// (Params.Read, Params.RebalanceRounds), in every mode.
	Params adio.Params
	// SecPerElem is the virtual CPU cost of the map per element, the knob
	// behind the paper's computation:I/O ratio sweeps.
	SecPerElem float64
	// MapParallelism is the number of cores the in-place map can use on an
	// aggregator's node. During the I/O phase the node's non-aggregator
	// ranks are idle, so the map on the aggregated block is spread over the
	// node's cores — without this the paper's configuration (5 aggregators
	// serving 120 processes) could not reach its reported speedups, since
	// the map work would concentrate 24x on the aggregator core. 0 means
	// one core per rank on the node (fabric RanksPerNode). Set 1 for the
	// serial-map ablation.
	MapParallelism int
	// NoCoalesce disables merging adjacent logical subsets during the
	// construction (Figure 8); kept for the metadata-overhead ablation.
	NoCoalesce bool
	// Stats, when non-nil, accumulates runtime accounting across all ranks.
	Stats *Stats
	// LocalState, when non-nil and Reduce is AllToAll, receives this rank's
	// own reduced partial state after the shuffle and before the final
	// reduce — the "further processing on the results, locally" that the
	// paper gives as the reason to keep the all-to-all mode (§III-C).
	LocalState func(State)
	// Consumers piggybacks additional analyses on this job's physical pass
	// (cross-job read coalescing): each consumer's operator is fused with op
	// and evaluated over the same reconstructed subsets, and its result is
	// delivered on the root via Consumer.OnResult. Requires the
	// collective-computing path (no Block, no Independent). Every rank must
	// pass the identical consumer list. See Consumer for the eligibility
	// rules that make piggybacked results bit-identical to cold runs.
	Consumers []Consumer
}

// Result is the outcome of an object I/O on one rank.
type Result struct {
	// Value is the final scalar, available on every rank.
	Value float64
	// State is the final merged state (valid on the root; nil elsewhere).
	State State
	// Root reports whether this rank was the reduction root.
	Root bool
}

// Stats accumulates collective-computing accounting across ranks. The
// simulation kernel runs ranks one at a time, and the map's host workers
// never write it, so plain fields are safe.
type Stats struct {
	// MapElements is the number of elements folded by the map phase.
	MapElements int64
	// MapSeconds is virtual CPU time spent in the map.
	MapSeconds float64
	// ConstructSeconds is time spent reconstructing logical subsets and
	// decoding values (the paper's "logical construction" overhead).
	ConstructSeconds float64
	// LocalReduceSeconds is time merging intermediate results before the
	// final reduce — the paper's "local reduction" overhead (Figure 11).
	LocalReduceSeconds float64
	// FinalReduceSeconds is time in the final cross-process reduce.
	FinalReduceSeconds float64
	// MetadataBytes is the coordinate+owner metadata attached to
	// intermediate results (Figure 12).
	MetadataBytes int64
	// IntermediateRecords counts (aggregator, iteration, owner) partials.
	IntermediateRecords int64
	// Subsets counts logical subsets produced by the construction.
	Subsets int64
	// ShuffleBytes is the partial-result traffic actually shuffled.
	ShuffleBytes int64
	// RawBytes is the raw data the unmodified shuffle would have moved.
	RawBytes int64

	// Straggler handling (adio.Params.Read and RebalanceRounds, against the
	// plans of internal/fault), folded from the ranks' pfs.RetryStats.
	// IOTimeouts / IORetries count read requests abandoned for exceeding the
	// read timeout and their reissues; BackoffSeconds is the total backoff
	// wait inserted before reissues.
	IOTimeouts     int64
	IORetries      int64
	BackoffSeconds float64
	// Rebalances counts read rounds replanned with health-weighted file
	// domains; FlaggedSlowOSTs accumulates the flagged-OST count at each.
	Rebalances      int64
	FlaggedSlowOSTs int64
}

// Add accumulates o into s — the session/cluster roll-up over per-job stats.
func (s *Stats) Add(o Stats) {
	s.MapElements += o.MapElements
	s.MapSeconds += o.MapSeconds
	s.ConstructSeconds += o.ConstructSeconds
	s.LocalReduceSeconds += o.LocalReduceSeconds
	s.FinalReduceSeconds += o.FinalReduceSeconds
	s.MetadataBytes += o.MetadataBytes
	s.IntermediateRecords += o.IntermediateRecords
	s.Subsets += o.Subsets
	s.ShuffleBytes += o.ShuffleBytes
	s.RawBytes += o.RawBytes
	s.IOTimeouts += o.IOTimeouts
	s.IORetries += o.IORetries
	s.BackoffSeconds += o.BackoffSeconds
	s.Rebalances += o.Rebalances
	s.FlaggedSlowOSTs += o.FlaggedSlowOSTs
}

// reduceMsgBuckets are the histogram bounds (bytes) for the
// cc_reduce_message_bytes metric — decades from 1 KB to 1 GB.
var reduceMsgBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// observeReduceMsg records one intermediate-result message's size.
func observeReduceMsg(ot *obs.Tracer, bytes int64) {
	ot.Metrics().Histogram("cc_reduce_message_bytes", reduceMsgBuckets...).
		Observe(float64(bytes))
}

// ownerGroup is a run of consecutive pieces of one aggregator iteration,
// [lo, hi), with one owner, and what the map's host phase made of it: the
// state folded from op.Zero() over the pieces' subsets in order, and the
// counts the virtual phase charges for.
type ownerGroup struct {
	owner                   int
	lo, hi                  int
	st                      State
	elems, mdBytes, subsets int64
}

// partialMsg is the intermediate-result message of the modified shuffle.
type partialMsg struct {
	state   State
	records int64
	mdBytes int64
}

// SessionEnv is the slice of a persistent cluster session the runtime needs
// to execute an object I/O: the job's communicator, a storage client per
// rank, and the session's shared plan cache and accounting sink. It is
// implemented by cluster.JobContext; declaring the surface here keeps cc
// independent of the scheduler.
type SessionEnv interface {
	Comm() *mpi.Comm
	Client(r *mpi.Rank) *pfs.Client
	PlanCache() *adio.PlanCache
	Stats() *Stats
}

// ObjectGetVaraSession executes the object I/O inside a cluster session: the
// communicator and storage client come from the session, and — unless the
// descriptor overrides them — so do the plan cache and the stats sink.
func ObjectGetVaraSession(s SessionEnv, r *mpi.Rank, io IO, op Op) (Result, error) {
	if io.Params.PlanCache == nil {
		io.Params.PlanCache = s.PlanCache()
	}
	if io.Stats == nil {
		io.Stats = s.Stats()
	}
	return ObjectGetVara(r, s.Comm(), s.Client(r), io, op)
}

// ObjectGetVara executes the object I/O with the given operator — the
// ncmpi_object_get_vara of paper Figure 6. Every member of c must call it
// (SPMD). The final Value is broadcast to all members.
func ObjectGetVara(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, io IO, op Op) (Result, error) {
	if io.DS == nil {
		return Result{}, fmt.Errorf("cc: nil dataset")
	}
	if _, err := io.DS.Var(io.VarID); err != nil {
		return Result{}, err
	}
	if io.Root < 0 || io.Root >= c.Size() {
		return Result{}, fmt.Errorf("cc: root %d out of range", io.Root)
	}
	if err := checkCost(io.SecPerElem); err != nil {
		return Result{}, err
	}
	if len(io.Consumers) > 0 {
		if io.Block || io.Mode == Independent {
			return Result{}, fmt.Errorf("cc: consumers require the collective-computing path")
		}
		for _, cs := range io.Consumers {
			if err := checkCost(cs.SecPerElem); err != nil {
				return Result{}, err
			}
		}
		return runWithConsumers(r, c, cl, io, op)
	}
	before := cl.Retry
	ot := r.World().Obs()
	var sp obs.SpanID
	if ot != nil {
		mode := "collective-computing"
		if io.Block || io.Mode == Independent {
			mode = "traditional"
		}
		sp = ot.BeginRank(r.Rank(), "cc.get", "cc", r.Now(),
			obs.S("mode", mode), obs.I("root", int64(io.Root)))
	}
	var res Result
	var err error
	if io.Block || io.Mode == Independent {
		res, err = runTraditional(r, c, cl, io, op)
	} else {
		res, err = runCollectiveComputing(r, c, cl, io, op)
	}
	if ot != nil {
		ot.End(sp, r.Now())
	}
	if io.Stats != nil && err == nil {
		io.Stats.IOTimeouts += cl.Retry.Timeouts - before.Timeouts
		io.Stats.IORetries += cl.Retry.Retries - before.Retries
		io.Stats.BackoffSeconds += cl.Retry.BackoffSeconds - before.BackoffSeconds
		io.Stats.Rebalances += cl.Retry.Rebalances - before.Rebalances
		io.Stats.FlaggedSlowOSTs += cl.Retry.FlaggedSlowOSTs - before.FlaggedSlowOSTs
	}
	return res, err
}

// checkCost rejects a map cost per element that is negative or not finite:
// booked into Stats and the clock, it would run time backwards.
func checkCost(secPerElem float64) error {
	if !(secPerElem >= 0) || math.IsInf(secPerElem, 1) {
		return fmt.Errorf("cc: map cost %v s per element: need a finite cost of at least 0", secPerElem)
	}
	return nil
}

// runWithConsumers executes the object I/O once with op fused against every
// distinct consumer operator, then unpacks the per-consumer results on the
// root. Consumers whose operators have equal OpKeys, the primary's included,
// read one fused component, which folds the same Absorbs and Merges in the
// same order as a component of each one's own would. The fold structure per
// fused component is exactly what each operator's own run would use, so the
// primary result is unchanged bit for bit, and every eligible consumer's
// result matches its cold run (see Consumer). The modelled pass is charged
// per consumer: the map cost and the message size sum over every consumer,
// whether its component is shared or not.
func runWithConsumers(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, io IO, op Op) (Result, error) {
	cons := io.Consumers
	ops := []Op{op}
	keys := []any{OpKey(op)}
	comp := make([]int, len(cons)) // consumer i's component
	fio := io
	fio.Consumers = nil
	var fused chargedFuse
	for i, cs := range cons {
		k := OpKey(cs.Op)
		j := slices.Index(keys, k)
		if j < 0 {
			j = len(ops)
			ops = append(ops, cs.Op)
			keys = append(keys, k)
		} else {
			fused.shared += cs.Op.StateBytes()
		}
		comp[i] = j
		fio.SecPerElem += cs.SecPerElem
	}
	fused.Ops = ops
	if inner := io.LocalState; inner != nil {
		fio.LocalState = func(st State) { inner(fused.StateOf(st, 0)) }
	}
	res, err := ObjectGetVara(r, c, cl, fio, fused)
	if err != nil {
		return Result{}, err
	}
	// The broadcast Value is already the primary operator's (Fuse.Value
	// reports its first component); only the root holds fused state.
	if res.Root {
		st := res.State
		for i, cs := range cons {
			cst := fused.StateOf(st, comp[i])
			if cs.OnResult != nil {
				cs.OnResult(Result{Value: cs.Op.Value(cst), State: cst, Root: true})
			}
		}
		res.State = fused.StateOf(st, 0)
	}
	return res, nil
}

// chargedFuse is the operator of a coalesced pass: a Fuse of the distinct
// operators, whose partial result is charged as if no component were shared,
// the message of one component per consumer. shared is the StateBytes of the
// consumers that read another's component.
type chargedFuse struct {
	Fuse
	shared int64
}

// StateBytes implements Op.
func (f chargedFuse) StateBytes() int64 { return f.Fuse.StateBytes() + f.shared }

// runTraditional is the paper's Figure 5 baseline: finish the I/O, then
// compute, then MPI_Reduce.
func runTraditional(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, io IO, op Op) (Result, error) {
	// Computation stage: the whole local subset, folded from one state. The
	// fold starts on a host slot once the read is done and runs while the
	// rank is charged for it (FoldVara): Absorb moves no virtual time, so it
	// may run at any moment before the reduce needs its state.
	v, _ := io.DS.Var(io.VarID)
	f := newFold(op, io.DS.CanScan(io.VarID), op.Zero())
	independent := io.Mode == Independent
	join, err := io.DS.FoldVara(r, c, cl, io.VarID, io.Slab, io.Aggregators, io.Params, independent,
		func(w *ncfile.Worker, elemRuns []layout.Run, raw []byte) {
			f.slab(w, io.DS, io.VarID, v, elemRuns, raw, !io.NoCoalesce)
		})
	if err != nil {
		return Result{}, err
	}
	defer join.Wait()
	if independent {
		// Independent I/O still synchronizes before the reduce.
		c.Barrier(r)
	}
	elems := io.Slab.NumElems()
	tm0 := r.Now()
	r.Compute(float64(elems) * io.SecPerElem)
	if ot := r.World().Obs(); ot != nil {
		ot.SpanRank(r.Rank(), "cc.map", "cc", tm0, r.Now(),
			obs.I("elems", elems))
	}
	if io.Stats != nil {
		io.Stats.MapElements += elems
		io.Stats.MapSeconds += float64(elems) * io.SecPerElem
	}
	join.Wait()
	return finalReduce(r, c, io, op, f.state(v.Dims))
}

// foldChunk is the most elements the traditional leg's fold absorbs at once
// where it does not scan: the bound on its fold slot's value buffer, a
// quarter of host.Grain, one time step of a rank's subset in paper_cc.
const foldChunk = host.Grain / 4

// fold folds a variable's values into one state: by the dataset's scan (of
// the generator, or of the bytes read) into acc when sc is set, and
// otherwise by op's Absorb of the values, subset by subset. The CC map runs
// one per owner group, over its pieces' runs (run), and the traditional leg
// one per rank, over its slab's runs (slab).
type fold struct {
	op  Op
	sc  scanOp
	st  State
	acc ncfile.Acc
	n   int64 // elements scanned
}

// newFold returns a fold of op from st, which scans when op and the
// variable both allow it.
func newFold(op Op, canScan bool, st State) fold {
	f := fold{op: op, st: st}
	if canScan {
		f.sc = scanOf(op)
	}
	if f.sc != nil {
		f.acc = f.sc.toAcc(st)
	}
	return f
}

// run folds the values of elemRun, a run of variable id's elements that
// slabs tile in order, on host worker or fold slot w; raw is the run's bytes
// when the dataset holds bytes. A scan does not look at slabs.
func (f *fold) run(w *ncfile.Worker, ds *ncfile.Dataset, id int, elemRun layout.Run, slabs []layout.Slab, raw []byte) {
	runs := []layout.Run{elemRun}
	if f.sc != nil {
		ds.Scan(w, id, runs, raw, &f.acc)
		f.n += elemRun.Length
		return
	}
	data := ds.WorkerValues(w, id, runs, raw)
	pos := int64(0)
	for _, slab := range slabs {
		n := slab.NumElems()
		f.st = f.op.Absorb(f.st, Subset{Slab: slab, Data: data[pos : pos+n]})
		pos += n
	}
}

// slab folds a rank's slab of variable id, v, on fold slot w, in row-major
// order: elemRuns are the slab's element runs and raw the bytes read, when
// the dataset holds bytes, each run handed its own. A scan takes each run
// whole. Otherwise each run is cut into chunks of at most foldChunk
// elements, and the map's cut (RunToSlabs) makes each chunk's subsets.
func (f *fold) slab(w *ncfile.Worker, ds *ncfile.Dataset, id int, v *ncfile.Var, elemRuns []layout.Run, raw []byte, coalesce bool) {
	sz := v.Type.Size()
	for _, run := range elemRuns {
		var b []byte
		if raw != nil {
			b, raw = raw[:run.Length*sz], raw[run.Length*sz:]
		}
		if f.sc != nil {
			f.run(w, ds, id, run, nil, b)
			continue
		}
		for lo := int64(0); lo < run.Length; lo += foldChunk {
			chunk := layout.Run{Offset: run.Offset + lo, Length: min(foldChunk, run.Length-lo)}
			var cb []byte
			if b != nil {
				cb = b[lo*sz : (lo+chunk.Length)*sz]
			}
			f.run(w, ds, id, chunk, w.Slabs.RunToSlabs(v.Dims, chunk, coalesce), cb)
		}
	}
}

// state is the fold's state, for a variable of dims.
func (f *fold) state(dims []int64) State {
	if f.sc != nil {
		return f.sc.fromAcc(f.st, f.acc, f.n, dims)
	}
	return f.st
}

// runCollectiveComputing is the paper's Figure 7 runtime: map inside the
// two-phase iterations, shuffle partial results, reduce.
func runCollectiveComputing(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, io IO, op Op) (Result, error) {
	v, _ := io.DS.Var(io.VarID)
	runs, err := io.DS.ByteRuns(io.VarID, io.Slab)
	if err != nil {
		return Result{}, err
	}
	io.Params = io.Params.Defaults()
	// The map consumes whole elements, so no collective-buffer window may cut
	// one. Every run starts on an element and windows are laid from a run's
	// start, so a buffer of whole elements suffices. Band and file-domain
	// boundaries fall on multiples of Align from the hull's start: whole
	// elements at least, and adio's whole stripes for rebalanced rounds
	// unless the caller chose an alignment.
	sz := v.Type.Size()
	io.Params.CB = max(io.Params.CB/sz, 1) * sz
	f := io.DS.File()
	if io.Params.Align <= 0 {
		io.Params.Align = sz
		if io.Params.RebalanceRounds > 1 {
			io.Params.Align = f.StripeSize()
		}
	}
	io.Params.Align = (io.Params.Align + sz - 1) / sz * sz
	// The construction and merge costs are the machine's (fabric.Params).
	cost := r.World().Net().Params()
	aggrs := io.Aggregators
	if aggrs == nil {
		aggrs = adio.DefaultAggregators(c.Size(), cost.RanksPerNode)
	}

	me := c.RankOf(r)
	ot := r.World().Obs()
	elemBase := v.Offset
	par := float64(io.MapParallelism)
	if par <= 0 {
		par = float64(cost.RanksPerNode)
	}

	// Owner-side accumulated state (all-to-all, one slot per sending
	// aggregator so the final fold can run in sender-rank order) and
	// aggregator-side per-owner accumulation (all-to-one, on the aggregators
	// and the root, indexed by the owner's comm rank; an owner with no
	// records has no state yet).
	bySender := make(map[int]State)
	var perOwner []partialMsg
	if io.Reduce == AllToOne && (me == io.Root || slices.Contains(aggrs, me)) {
		perOwner = make([]partialMsg, c.Size())
	}

	// The map runs in two phases per iteration. The host phase folds every
	// owner group on the dataset's host workers (mapGroup): each group from
	// its own op.Zero(), by the dataset's scan where it can (fold) and
	// otherwise with the same Absorb calls in the same order as a serial
	// fold, so its state cannot depend on the schedule. It moves no virtual
	// time, does not yield, and writes nothing but its own group and pieces.
	// The virtual phase then charges the groups for it, merges or ships their
	// states, and accounts them, in group order on the rank's goroutine. The
	// slices are kept from iteration to iteration.
	var (
		groups  []ownerGroup
		subsets []int // per piece of the iteration: the subsets it yields
		iterNow *adio.Iter
		extNow  []byte
	)
	canScan := io.DS.CanScan(io.VarID)
	mapGroup := func(w *ncfile.Worker, gi int) {
		g := &groups[gi]
		f := newFold(op, canScan, op.Zero())
		for k := g.lo; k < g.hi; k++ {
			pc := iterNow.Pieces[k]
			elemRun := layout.Run{
				Offset: (pc.Run.Offset - elemBase) / sz,
				Length: pc.Run.Length / sz,
			}
			slabs := w.Slabs.RunToSlabs(v.Dims, elemRun, !io.NoCoalesce)
			// ext is nil exactly when the read is charge-only, in which
			// case the values do not come from the piece's bytes.
			var raw []byte
			if extNow != nil {
				raw = extNow[pc.Run.Offset-iterNow.ReadLo : pc.Run.End()-iterNow.ReadLo]
			}
			f.run(w, io.DS, io.VarID, elemRun, slabs, raw)
			subsets[k] = len(slabs)
			g.elems += elemRun.Length
			g.mdBytes += layout.MetadataBytes(slabs)
			g.subsets += int64(len(slabs))
		}
		g.st = f.state(v.Dims)
	}

	transform := func(aggrIdx, iter int, it *adio.Iter, ext []byte) map[int]adio.Payload {
		pieces := it.Pieces
		// A group is a run of one owner's pieces. Count them first, so that
		// the slice is allocated once, at the size of the most groups.
		ng := 0
		for k := range pieces {
			if k == 0 || pieces[k].Owner != pieces[k-1].Owner {
				ng++
			}
		}
		if cap(groups) < ng {
			groups = make([]ownerGroup, 0, ng)
		}
		groups = groups[:0]
		var elems int64
		for k, pc := range pieces {
			if k == 0 || pc.Owner != pieces[k-1].Owner {
				groups = append(groups, ownerGroup{owner: pc.Owner, lo: k})
			}
			groups[len(groups)-1].hi = k + 1
			elems += pc.Run.Length / sz
		}
		if cap(subsets) < len(pieces) {
			subsets = make([]int, len(pieces))
		}
		subsets = subsets[:len(pieces)]
		iterNow, extNow = it, ext
		io.DS.RunWorkers(len(groups), elems, mapGroup)
		iterNow, extNow = nil, nil

		// The virtual phase.
		var out map[int]adio.Payload
		if io.Reduce != AllToOne {
			out = make(map[int]adio.Payload, len(groups))
		}
		for gi := range groups {
			g := &groups[gi]
			tg0 := r.Now()
			t0 := r.Now()
			for k := g.lo; k < g.hi; k++ {
				// Construction cost: per subset plus the decode memcopy.
				r.Sys(float64(subsets[k])*cost.ConstructCost +
					float64(pieces[k].Run.Length)/cost.PackRate)
				t1 := r.Now()
				if io.Stats != nil {
					io.Stats.ConstructSeconds += t1 - t0
				}
				t0 = t1
			}
			// Map cost, spread across the node's idle cores.
			r.Compute(float64(g.elems) * io.SecPerElem / par)
			if ot != nil {
				ot.SpanRank(r.Rank(), "cc.map", "cc", tg0, r.Now(),
					obs.I("owner", int64(g.owner)), obs.I("elems", g.elems),
					obs.I("iter", int64(iter)))
			}
			if io.Stats != nil {
				io.Stats.MapElements += g.elems
				io.Stats.MapSeconds += float64(g.elems) * io.SecPerElem / par
				io.Stats.MetadataBytes += g.mdBytes
				io.Stats.IntermediateRecords++
				io.Stats.Subsets += g.subsets
				io.Stats.RawBytes += g.elems * sz
			}
			switch io.Reduce {
			case AllToOne:
				t0 := r.Now()
				p := &perOwner[g.owner]
				if p.records == 0 {
					p.state = op.Zero()
				}
				p.state = op.Merge(p.state, g.st)
				p.records++
				p.mdBytes += g.mdBytes
				r.Compute(cost.MergeCost)
				if io.Stats != nil {
					io.Stats.LocalReduceSeconds += r.Now() - t0
				}
			default: // AllToAll: ship this iteration's partial to its owner.
				bytes := op.StateBytes() + g.mdBytes
				out[g.owner] = adio.Payload{
					Data:  partialMsg{state: g.st, records: 1, mdBytes: g.mdBytes},
					Bytes: bytes,
				}
				if ot != nil {
					observeReduceMsg(ot, bytes)
				}
				if io.Stats != nil {
					io.Stats.ShuffleBytes += bytes
				}
			}
			g.st = nil
		}
		return out
	}

	hooks := &adio.Hooks{Transform: transform}
	// A generator-backed dataset hands the map its values (ncfile.Values), so
	// its extents are charged and never materialised.
	chargeOnly := io.DS.Synthetic()
	if io.Reduce == AllToOne {
		hooks.SuppressShuffle = true
	} else {
		hooks.OnRecv = func(src, owner int, payload interface{}, bytes int64) {
			t0 := r.Now()
			msg := payload.(partialMsg)
			if st, ok := bySender[src]; ok {
				bySender[src] = op.Merge(st, msg.state)
			} else {
				bySender[src] = msg.state
			}
			r.Compute(cost.MergeCost)
			if io.Stats != nil {
				io.Stats.LocalReduceSeconds += r.Now() - t0
			}
		}
	}

	err = adio.CollectiveReadHooked(r, c, cl, f,
		adio.Request{Runs: runs, ChargeOnly: chargeOnly}, aggrs, io.Params, hooks)
	if err != nil {
		return Result{}, err
	}
	if io.Reduce == AllToOne {
		return allToOneFinish(r, c, io, op, aggrs, perOwner, me)
	}
	// Fold the per-sender partials in ascending sender rank: the fold order
	// becomes a pure function of the plan rather than of message arrival, so
	// float64 merges are bit-identical across solo/serial/concurrent runs no
	// matter how deliveries interleave.
	senders := make([]int, 0, len(bySender))
	for s := range bySender {
		senders = append(senders, s)
	}
	sort.Ints(senders)
	tf0 := r.Now()
	myState := op.Zero()
	for _, s := range senders {
		myState = op.Merge(myState, bySender[s])
		r.Compute(cost.MergeCost)
	}
	if io.Stats != nil {
		io.Stats.LocalReduceSeconds += r.Now() - tf0
	}
	if io.LocalState != nil {
		io.LocalState(myState)
	}
	return finalReduce(r, c, io, op, myState)
}

// allToOneFinish ships each aggregator's accumulated per-owner partials to
// the root, which constructs per-process results and performs the final
// reduce (paper §III-C).
func allToOneFinish(r *mpi.Rank, c *mpi.Comm, io IO, op Op,
	aggrs []int, perOwner []partialMsg, me int) (Result, error) {
	tag := c.ReserveTags(r, 1)
	rootWorld := c.WorldRank(io.Root)
	amAggr := slices.Contains(aggrs, me)
	ot := r.World().Obs()
	merge := r.World().Net().Params().MergeCost

	if me != io.Root {
		if amAggr {
			// One message carrying all my per-owner partials.
			var bytes, owners int64
			for i := range perOwner {
				if p := &perOwner[i]; p.records > 0 {
					bytes += p.records*op.StateBytes() + p.mdBytes
					owners++
				}
			}
			ts0 := r.Now()
			r.Send(rootWorld, tag, perOwner, bytes)
			if ot != nil {
				ot.SpanRank(r.Rank(), "cc.reduce", "cc", ts0, r.Now(),
					obs.I("bytes", bytes), obs.I("owners", owners))
				observeReduceMsg(ot, bytes)
			}
			if io.Stats != nil {
				io.Stats.ShuffleBytes += bytes
			}
		}
		// Receive the broadcast final value below.
		v := c.Bcast(r, io.Root, nil, 8)
		return Result{Value: v.(float64)}, nil
	}

	// Root: merge its own partials, then every other aggregator's in
	// aggregator order, into perOwner.
	t0 := r.Now()
	if amAggr {
		for i := range perOwner {
			if p := &perOwner[i]; p.records > 0 {
				r.Compute(merge * float64(p.records))
			}
		}
	}
	for _, a := range aggrs {
		if a == me {
			continue
		}
		v, _ := r.Recv(c.WorldRank(a), tag)
		for owner, p := range v.([]partialMsg) {
			if p.records == 0 {
				continue
			}
			if cur := &perOwner[owner]; cur.records > 0 {
				cur.state = op.Merge(cur.state, p.state)
				cur.records += p.records
			} else {
				*cur = p
			}
			r.Compute(merge * float64(p.records))
		}
	}
	// Final reduce over the constructed per-process results.
	final := op.Zero()
	var owners int64
	for i := range perOwner {
		if p := &perOwner[i]; p.records > 0 {
			final = op.Merge(final, p.state)
			r.Compute(merge)
			owners++
		}
	}
	if io.Stats != nil {
		io.Stats.FinalReduceSeconds += r.Now() - t0
	}
	if ot != nil {
		ot.SpanRank(r.Rank(), "cc.reduce", "cc", t0, r.Now(),
			obs.I("owners", owners))
	}
	val := op.Value(final)
	c.Bcast(r, io.Root, val, 8)
	return Result{Value: val, State: final, Root: true}, nil
}

// finalReduce runs the cross-process reduce of local states to the root and
// broadcasts the scalar result.
func finalReduce(r *mpi.Rank, c *mpi.Comm, io IO, op Op, st State) (Result, error) {
	merge := r.World().Net().Params().MergeCost
	t0 := r.Now()
	final := c.Reduce(r, io.Root, st, op.StateBytes(), func(a, b interface{}) interface{} {
		r.Compute(merge)
		return op.Merge(a, b)
	})
	if io.Stats != nil {
		io.Stats.FinalReduceSeconds += r.Now() - t0
	}
	if ot := r.World().Obs(); ot != nil {
		ot.SpanRank(r.Rank(), "cc.reduce", "cc", t0, r.Now(),
			obs.I("bytes", op.StateBytes()))
	}
	isRoot := c.RankOf(r) == io.Root
	var val float64
	if isRoot {
		val = op.Value(final)
	}
	v := c.Bcast(r, io.Root, val, 8)
	res := Result{Value: v.(float64), Root: isRoot}
	if isRoot {
		res.State = final
	} else {
		res.Value = v.(float64)
	}
	return res, nil
}
