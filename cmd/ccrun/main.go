// Command ccrun executes one collective-computing job on the simulated
// cluster from command-line flags: choose a workload (climate or wrf), an
// access region, an operator, the I/O mode and the reduce mode, and compare
// against the traditional baseline. A seeded fault plan can be injected to
// study degradation, and the straggler mitigation (read timeout/retry plus
// between-round domain rebalancing) can be switched on against it. The
// mitigation is internal/adio's, so it applies to every I/O mode: the read
// timeout to cc, traditional and independent reads alike, rebalanced rounds
// to the collective reads of cc and traditional.
//
// Examples:
//
//	ccrun -workload climate -op mean -procs 64 -steps 32
//	ccrun -workload wrf -task minslp -procs 48 -steps 96
//	ccrun -workload climate -op maxloc -mode traditional
//	ccrun -workload climate -stragglers 2 -read-timeout 0.02 -rebalance-rounds 4
//	ccrun -workload climate -op mean -trace trace.json -metrics metrics.txt
//	ccrun -workload climate -op sum -repeat 4 -memo
//
// -repeat submits the same job N times through the cluster job queue, and
// -memo enables the cluster's cross-job result cache + read coalescer on it,
// so duplicate submissions are served from one physical pass (bit-identically
// — the per-copy "[memo-hit]" markers show which copies never touched
// storage). The queued path covers the cc and traditional modes; it has no
// independent mode and manages pipelining and mitigation itself.
//
// ccrun runs one job per invocation; streams of jobs belong to `ccexp
// workload`, which generates, records (-trace-out) and replays (-trace-in)
// repro.workload.v1 traces.
//
// -trace writes a Chrome trace-event JSON file of the run's span hierarchy
// (scheduler, cc phases, adio iterations, pfs requests, mpi messages) for
// ui.perfetto.dev; -metrics writes the matching metrics-registry dump. Both
// are byte-identical across runs of the same command line. The rest of the
// telemetry plane (-events, -series, -report, -slo, -slo-strict) rides the
// same tracer, and -explain adds the scheduler's decision trace
// (repro.decisions.v2 lines in the event log) plus a per-job wait
// attribution printed after the run. Every telemetry flag
// composes with every other: the event and series logs go to disk as they
// are produced, and spans stay in memory only in the -trace export's sink.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/pfs"
	"repro/internal/prof"
	"repro/internal/wrf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("ccrun", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		wlName = fl.String("workload", "climate", "workload: climate | wrf")
		opName = fl.String("op", "sum", "operator: sum|count|min|max|mean|minloc|maxloc (climate only)")
		task   = fl.String("task", "minslp", "wrf task: minslp | maxwind")
		procs  = fl.Int("procs", 48, "number of MPI ranks")
		rpn    = fl.Int("rpn", 24, "ranks per node")
		naggr  = fl.Int("aggregators", 0, "aggregator count (0 = one per node)")
		steps  = fl.Int64("steps", 24, "time steps to analyze")
		ny     = fl.Int64("ny", 512, "grid rows")
		nx     = fl.Int64("nx", 512, "grid columns")
		cb     = fl.Int64("cb", 4<<20, "collective buffer bytes")
		mode   = fl.String("mode", "cc", "mode: cc | traditional | independent")
		reduce = fl.String("reduce", "all2one", "reduce: all2one | all2all")
		spe    = fl.Float64("comp", 2e-8, "map compute cost per element (seconds)")
		pipe   = fl.Bool("pipeline", true, "overlap reads with the shuffle")
		repeat = fl.Int("repeat", 1, "submit the job N times through the cluster job queue")
		memo   = fl.Bool("memo", false, "enable the cluster result cache + read coalescer (serves -repeat duplicates from one pass)")
		policy = fl.String("policy", "", "scheduling policy for the queued path (-repeat/-memo): fifo|easy-backfill|priority|fairshare")

		// Fault injection (see internal/fault).
		faultSeed  = fl.Int64("fault-seed", 1, "fault plan PRNG seed")
		stragglers = fl.Int("stragglers", 0, "straggling OSTs to inject")
		stragFac   = fl.Float64("straggler-factor", 8, "straggler service slowdown")
		slowLinks  = fl.Int("slow-links", 0, "degraded-NIC nodes to inject")
		slowRanks  = fl.Int("slow-ranks", 0, "time-dilated ranks to inject")
		horizon    = fl.Float64("fault-horizon", 0.1, "virtual-time span fault episodes are placed in (s)")

		// Straggler handling, in every mode (see adio.Params.Read and
		// RebalanceRounds).
		readTimeout = fl.Float64("read-timeout", 0, "abandon+reissue OST reads predicted past this (s); 0 = off")
		readRetries = fl.Int("read-retries", 4, "retry budget per OST request")
		readBackoff = fl.Float64("read-backoff", 0, "extra wait per reissue (s)")
		rebalRounds = fl.Int("rebalance-rounds", 0, "split the read into rounds, replanning domains around flagged-slow OSTs; 0|1 = off")
	)
	var tele obscli.Flags
	tele.Register(fl)
	var pf prof.Flags
	pf.Register(fl)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "ccrun: "+format+"\n", a...)
		return 1
	}
	stopProf, err := pf.Start()
	if err != nil {
		return fail("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "ccrun: %v\n", err)
		}
	}()

	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case *procs < 1:
		return fail("-procs %d: need at least one rank", *procs)
	case !finite(*spe) || *spe < 0:
		return fail("-comp %v: need a finite cost per element of at least 0", *spe)
	case !finite(*stragFac) || *stragFac < 1:
		return fail("-straggler-factor %v: need a finite slowdown of at least 1", *stragFac)
	case !finite(*horizon) || *horizon <= 0:
		return fail("-fault-horizon %v: need a finite span above 0", *horizon)
	}
	if *steps < int64(*procs) && *ny < int64(*procs) {
		return fail("need steps or ny >= procs to split the domain")
	}
	if err := cluster.CheckPolicy(*policy); err != nil {
		return fail("-policy: %v", err)
	}

	// finishRun ends either path: tear down the telemetry plane (which writes
	// -trace/-metrics), apply -slo-strict, then flush the profiles.
	var ot *obs.Tracer
	var plane *obscli.Plane
	finishRun := func() int {
		viol, err := plane.Finish()
		if err != nil {
			return fail("%v", err)
		}
		if tele.Strict && len(viol) > 0 {
			fmt.Fprintf(stderr, "ccrun: %d SLO violation(s) under -slo-strict\n", len(viol))
			return 1
		}
		if err := stopProf(); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	if tele.Any() {
		ot = obs.New()
	}
	if plane, err = tele.Attach(ot, stderr); err != nil {
		return fail("%v", err)
	}
	cl := cluster.New(cluster.Spec{Ranks: *procs, RanksPerNode: *rpn, Obs: ot, Memo: *memo, Policy: *policy})
	fs := cl.FS()

	if *stragglers > 0 || *slowLinks > 0 || *slowRanks > 0 {
		plan := fault.Gen(fault.Spec{
			Seed:    *faultSeed,
			NumOSTs: fs.Params().NumOSTs, NumNodes: cl.World().Net().Nodes(), NumRanks: *procs,
			Stragglers: *stragglers, StragglerFactor: *stragFac,
			Links: *slowLinks, SlowRanks: *slowRanks,
			Horizon: *horizon,
		})
		plan.Apply(cl.World(), fs)
		fmt.Fprintln(stdout, plan)
	}

	var ds *ncfile.Dataset
	var varID int
	var op cc.Op
	var slab layout.Slab
	switch *wlName {
	case "climate":
		var err error
		ds, varID, err = climate.NewDataset3D(fs, []int64{max64(*steps, 1024), *ny, *nx}, 40, 4<<20)
		if err != nil {
			return fail("%v", err)
		}
		op, err = cc.OpByName(*opName)
		if err != nil {
			return fail("%v", err)
		}
		slab = layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{*steps, *ny, *nx}}
	case "wrf":
		storm := wrf.DefaultStorm(*steps, *ny, *nx)
		d, err := wrf.NewDataset(fs, storm, 40, 4<<20)
		if err != nil {
			return fail("%v", err)
		}
		ds = d.DS
		var tk wrf.Task
		switch *task {
		case "minslp":
			tk = d.MinSLPTask()
		case "maxwind":
			tk = d.MaxWindTask()
		default:
			return fail("unknown wrf task %q", *task)
		}
		varID, op = tk.VarID, tk.Op
		slab = d.FullSlab()
		fmt.Fprintf(stdout, "task: %s\n", tk.Name)
	default:
		return fail("unknown workload %q", *wlName)
	}

	splitDim := 0
	if slab.Count[0] < int64(*procs) {
		splitDim = 1
	}
	slabs := climate.SplitAlongDim(slab, splitDim, *procs)

	job := cc.IO{
		DS: ds, VarID: varID,
		Params: adio.Params{CB: *cb, Pipeline: *pipe, PlanCache: &adio.PlanCache{},
			Read:            pfs.ReadPolicy{Timeout: *readTimeout, Retries: *readRetries, Backoff: *readBackoff},
			RebalanceRounds: *rebalRounds},
		SecPerElem: *spe,
		Stats:      &cc.Stats{},
	}
	switch *mode {
	case "cc":
	case "traditional":
		job.Block = true
	case "independent":
		job.Mode = cc.Independent
	default:
		return fail("unknown mode %q", *mode)
	}
	switch *reduce {
	case "all2one":
		job.Reduce = cc.AllToOne
	case "all2all":
		job.Reduce = cc.AllToAll
	default:
		return fail("unknown reduce %q", *reduce)
	}
	if *naggr > 0 {
		job.Aggregators = adio.SpreadAggregators(*procs, *naggr)
	}

	// The queued path: submit through the cluster scheduler so the result
	// cache can serve duplicate submissions (see internal/cluster/memo.go).
	if *memo || *repeat != 1 {
		if *repeat < 1 {
			return fail("-repeat must be >= 1")
		}
		if *mode == "independent" {
			return fail("-memo/-repeat use the cluster job queue, which has no independent mode")
		}
		if *readTimeout > 0 || *readBackoff > 0 || *rebalRounds > 1 {
			return fail("-memo/-repeat cannot combine with mitigation flags (the queued path manages I/O itself)")
		}
		if *naggr > 0 {
			return fail("-memo/-repeat cannot combine with -aggregators")
		}
		cl.RegisterDataset(*wlName, ds)
		crs := make([]*cluster.CCResult, *repeat)
		for i := range crs {
			crs[i] = cl.SubmitCC(cluster.CCJob{
				Name: fmt.Sprintf("%s-%d", *wlName, i), Ranks: *procs,
				Class: "cli", Dataset: *wlName, VarID: varID,
				Slab: slab, SplitDim: splitDim,
				Op: op, Block: *mode == "traditional", Reduce: job.Reduce,
				SecPerElem: *spe, CB: *cb,
			})
		}
		if _, err := cl.Run(); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "mode=%s reduce=%s procs=%d op=%s repeat=%d memo=%v\n",
			*mode, *reduce, *procs, op.Name(), *repeat, *memo)
		for _, cr := range crs {
			if !cr.Valid() {
				return fail("%s: %v", cr.Job.Name, cr.Err)
			}
			how := "ran"
			switch {
			case cr.MemoHit:
				how = "memo-hit"
			case cr.CoalescedWith != nil:
				how = "shared w/ " + cr.CoalescedWith.Job.Name
			}
			fmt.Fprintf(stdout, "%s: result %.6g [%s] %.4fs\n",
				cr.Job.Name, cr.Res.Value, how, cr.Duration())
		}
		if loc, ok := crs[0].Res.State.(cc.Loc); ok && loc.Valid {
			fmt.Fprintf(stdout, "at coordinates: %v\n", loc.Coords)
		}
		fmt.Fprintf(stdout, "virtual makespan: %.4fs\n", cl.Now())
		if *memo {
			st := cl.MemoStats()
			fmt.Fprintf(stdout, "memo: %d hits, %d waiters, %d coalesced, %d physical passes, %.1f MB not re-read\n",
				st.Hits, st.Waiters, st.Coalesced, st.Misses, float64(st.BytesSaved)/1e6)
		}
		return finishRun()
	}

	var rootRes cc.Result
	makespan, err := cl.RunSPMD(*wlName, func(ctx *cluster.JobContext, r *mpi.Rank) error {
		myIO := job
		myIO.Slab = slabs[ctx.Comm().RankOf(r)]
		res, err := cc.ObjectGetVara(r, ctx.Comm(), ctx.Client(r), myIO, op)
		if res.Root {
			rootRes = res
		}
		return err
	})
	if err != nil {
		return fail("%v", err)
	}

	fmt.Fprintf(stdout, "mode=%s reduce=%s procs=%d op=%s\n", *mode, *reduce, *procs, op.Name())
	fmt.Fprintf(stdout, "result: %.6g\n", rootRes.Value)
	if loc, ok := rootRes.State.(cc.Loc); ok && loc.Valid {
		fmt.Fprintf(stdout, "at coordinates: %v\n", loc.Coords)
	}
	fmt.Fprintf(stdout, "virtual makespan: %.4fs\n", makespan)
	st := job.Stats
	if st.MapElements > 0 {
		fmt.Fprintf(stdout, "map: %d elements, %.4fs; construction %.4fs; local reduce %.4fs\n",
			st.MapElements, st.MapSeconds, st.ConstructSeconds, st.LocalReduceSeconds)
		fmt.Fprintf(stdout, "shuffle: %d partial-result bytes vs %d raw bytes (%.1fx reduction), metadata %d bytes in %d records\n",
			st.ShuffleBytes, st.RawBytes, safeDiv(st.RawBytes, st.ShuffleBytes),
			st.MetadataBytes, st.IntermediateRecords)
	}
	if st.IOTimeouts > 0 || st.Rebalances > 0 {
		fmt.Fprintf(stdout, "mitigation: %d timeouts, %d retries, %.4fs backoff, %d rebalances (%d flagged-slow OSTs)\n",
			st.IOTimeouts, st.IORetries, st.BackoffSeconds, st.Rebalances, st.FlaggedSlowOSTs)
	}
	return finishRun()
}

func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
