package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// faultScenario is a small cluster whose access pattern is engineered to
// collide with storage faults: 8 ranks on 4 nodes, a 64 MB variable striped
// 1 MB over 16 OSTs, 4 aggregators with 1 MB collective buffers. Every
// aggregator's first CB iteration reads a stripe index that is 0 mod 16, so
// a straggler on OST 0 stalls all four read pipelines at once. block runs
// the traditional leg instead of collective computing, and mode picks
// collective or independent I/O.
type faultScenario struct {
	nranks, rpn, naggr int
	stripes            int
	stripeSize, cb     int64
	dims               []int64
	block              bool
	mode               cc.Mode
}

func defaultFaultScenario() faultScenario {
	return faultScenario{nranks: 8, rpn: 2, naggr: 4, stripes: 16,
		stripeSize: 1 << 20, cb: 1 << 20, dims: []int64{512, 128, 128}}
}

// run executes one Max reduction under the given fault plan and straggler
// handling (mit's Read and RebalanceRounds), returning the makespan, the
// reduced value, and the accumulated stats. runLeg fails the run unless
// every rank holds the root's value bit for bit.
func (sc faultScenario) run(t *testing.T, plan *fault.Plan, mit adio.Params) (float64, float64, cc.Stats) {
	t.Helper()
	p := mit
	p.CB, p.Pipeline = sc.cb, true
	run, err := runLeg(leg{name: "faults", nranks: sc.nranks, rpn: sc.rpn, plan: plan,
		create: climate.NewDataset3D, dims: sc.dims, stripes: sc.stripes, stripeSize: sc.stripeSize,
		slabs: climate.SplitAlongDim(layout.Slab{Start: []int64{0, 0, 0}, Count: sc.dims}, 1, sc.nranks),
		io: cc.IO{Block: sc.block, Mode: sc.mode, Reduce: cc.AllToOne,
			Aggregators: adio.SpreadAggregators(sc.nranks, sc.naggr), Params: p},
		op: cc.Max{}})
	if err != nil {
		t.Fatal(err)
	}
	return run.makespan, run.root.Value, run.stats
}

// truth computes the reduction's ground truth directly from the synthetic
// field the dataset is backed by — no simulated I/O involved.
func (sc faultScenario) truth() float64 {
	max := math.Inf(-1)
	c := make([]int64, 3)
	for c[0] = 0; c[0] < sc.dims[0]; c[0]++ {
		for c[1] = 0; c[1] < sc.dims[1]; c[1]++ {
			for c[2] = 0; c[2] < sc.dims[2]; c[2]++ {
				if v := climate.Temperature3D(c); v > max {
					max = v
				}
			}
		}
	}
	return max
}

// mustBits asserts a reduced value is bit-identical to ground truth: faults
// and mitigation may change timing, never data.
func mustBits(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: value %v (bits %x) != ground truth %v (bits %x)",
			label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestTransientStragglerRecovery is the headline acceptance test: under an
// 8x-straggler fault plan, collective computing with timeout/retry and
// between-round rebalancing recovers at least 30% of the gap between the
// faulted unmitigated run and the fault-free run — with the analysis result
// bit-identical to ground truth in every configuration.
func TestTransientStragglerRecovery(t *testing.T) {
	sc := defaultFaultScenario()
	want := sc.truth()

	// OST 0 serves 8x slower for the first 6 ms: long enough to catch every
	// aggregator's first-iteration read, short enough that a timed-out
	// request reissued after recovery completes at full speed.
	plan := &fault.Plan{Seed: 42, Stragglers: []fault.Straggler{
		{OST: 0, Factor: 8, Onset: 0, Recovery: 6e-3},
	}}
	// Healthy 1 MB service time is ~4.7 ms; time out when a request is
	// predicted to run 5 ms past its issue and back off briefly.
	mit := adio.Params{
		Read:            pfs.ReadPolicy{Timeout: 5e-3, Retries: 4, Backoff: 2e-3},
		RebalanceRounds: 4,
	}

	tFree, vFree, _ := sc.run(t, nil, adio.Params{})
	mustBits(t, "fault-free", vFree, want)
	tPlain, vPlain, _ := sc.run(t, plan, adio.Params{})
	mustBits(t, "faulted unmitigated", vPlain, want)
	tMit, vMit, stats := sc.run(t, plan, mit)
	mustBits(t, "faulted mitigated", vMit, want)

	gap := tPlain - tFree
	if gap <= 0 {
		t.Fatalf("fault plan had no effect: free %.4fs, faulted %.4fs", tFree, tPlain)
	}
	recovered := (tPlain - tMit) / gap
	t.Logf("free %.4fs faulted %.4fs mitigated %.4fs recovered %.0f%% (stats %+v)",
		tFree, tPlain, tMit, 100*recovered, stats)
	if recovered < 0.30 {
		t.Fatalf("mitigation recovered %.0f%% of the fault gap, want >= 30%%", 100*recovered)
	}
	if stats.IOTimeouts == 0 {
		t.Fatal("mitigated run recorded no timeouts — the fault never hit the read path")
	}
}

// TestIndependentReadStragglerTimeout: the read timeout belongs to the read
// protocol, so independent I/O under the transient straggler of
// TestTransientStragglerRecovery times requests out and reissues them as
// collective reads do — and reads the fault-free bits.
func TestIndependentReadStragglerTimeout(t *testing.T) {
	sc := defaultFaultScenario()
	sc.mode = cc.Independent
	plan := &fault.Plan{Seed: 42, Stragglers: []fault.Straggler{
		{OST: 0, Factor: 8, Onset: 0, Recovery: 6e-3},
	}}
	_, vFree, _ := sc.run(t, nil, adio.Params{})
	mustBits(t, "independent fault-free", vFree, sc.truth())
	_, vRetry, stats := sc.run(t, plan, adio.Params{
		Read: pfs.ReadPolicy{Timeout: 5e-3, Retries: 4, Backoff: 2e-3}})
	mustBits(t, "independent faulted with timeouts", vRetry, vFree)
	if stats.IOTimeouts == 0 {
		t.Fatalf("the independent read never timed out under the straggler: stats %+v", stats)
	}
}

// TestPersistentStragglerRebalance covers the other regime: an OST that never
// recovers. Retry cannot help (the reissued request is just as slow), but the
// health tracker flags the OST and between-round rebalancing shrinks the
// domain that drains it, strictly improving the makespan. Rebalancing is the
// collective read's, so the traditional leg rebalances too.
func TestPersistentStragglerRebalance(t *testing.T) {
	sc := defaultFaultScenario()
	want := sc.truth()
	plan := &fault.Plan{Seed: 7, Stragglers: []fault.Straggler{
		{OST: 3, Factor: 8, Onset: 0, Recovery: 1e9},
	}}
	// Rebalance-only: no retry budget to waste on a straggler that never
	// comes back (observations on accepted-slow requests still feed the
	// health tracker).
	mit := adio.Params{RebalanceRounds: 4}

	tPlain, vPlain, _ := sc.run(t, plan, adio.Params{})
	mustBits(t, "faulted unmitigated", vPlain, want)
	tRebal, vRebal, stats := sc.run(t, plan, mit)
	mustBits(t, "faulted rebalanced", vRebal, want)

	t.Logf("faulted %.4fs rebalanced %.4fs (stats %+v)", tPlain, tRebal, stats)
	if stats.Rebalances == 0 || stats.FlaggedSlowOSTs == 0 {
		t.Fatalf("rebalancing never engaged: stats %+v", stats)
	}
	if tRebal >= tPlain {
		t.Fatalf("rebalancing did not improve makespan: %.4fs >= %.4fs", tRebal, tPlain)
	}

	trad := sc
	trad.block = true
	_, vTrad, stats := trad.run(t, plan, mit)
	mustBits(t, "faulted rebalanced traditional", vTrad, want)
	if stats.Rebalances == 0 {
		t.Fatalf("the traditional leg never rebalanced: stats %+v", stats)
	}
}

// TestFaultedRunDeterminism is the regression guard for bit-reproducibility:
// the same seed and plan must yield the identical makespan, identical
// mitigation stats, and a bit-identical result on every run.
func TestFaultedRunDeterminism(t *testing.T) {
	sc := defaultFaultScenario()
	spec := fault.Spec{Seed: 99, NumOSTs: sc.stripes, NumNodes: sc.nranks / sc.rpn,
		NumRanks: sc.nranks, Stragglers: 2, StragglerFactor: 8,
		Links: 1, SlowRanks: 1, Horizon: 0.05}
	mit := adio.Params{Read: pfs.ReadPolicy{Timeout: 5e-3, Retries: 4, Backoff: 2e-3},
		RebalanceRounds: 4}

	p1, p2 := fault.Gen(spec), fault.Gen(spec)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("fault.Gen is not deterministic:\n%v\nvs\n%v", p1, p2)
	}

	mk1, v1, st1 := sc.run(t, p1, mit)
	mk2, v2, st2 := sc.run(t, p2, mit)
	if mk1 != mk2 {
		t.Fatalf("makespan differs across identical runs: %v vs %v", mk1, mk2)
	}
	if math.Float64bits(v1) != math.Float64bits(v2) {
		t.Fatalf("result differs across identical runs: %x vs %x",
			math.Float64bits(v1), math.Float64bits(v2))
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("stats differ across identical runs:\n%+v\nvs\n%+v", st1, st2)
	}
	mustBits(t, "faulted deterministic", v1, sc.truth())
}

// TestPlanCacheFaultEpochStaleness is the regression test for shared-plan
// staleness under fault injection: two jobs with the same access shape share
// one keyed plan cache, but they straddle an OST-straggler window — the first
// runs while the straggler is active (and rebalances its later rounds with
// health-weighted file domains), the second runs after recovery. Before the
// fix the cache keyed multi-round plans by round index alone, so the second
// job silently reused the first job's straggler-skewed domains; keying by
// (round, health epoch) forces it to replan. The cache must therefore hold
// two materially different plans for the same rebalanced round.
func TestPlanCacheFaultEpochStaleness(t *testing.T) {
	sc := defaultFaultScenario()
	cl := cluster.New(cluster.Spec{Ranks: sc.nranks, RanksPerNode: sc.rpn, MaxConcurrent: 1})
	plan := &fault.Plan{Seed: 11, Stragglers: []fault.Straggler{
		{OST: 3, Factor: 8, Onset: 0, Recovery: 2.0},
	}}
	plan.Apply(cl.World(), cl.FS())
	ds, id, err := climate.NewDataset3D(cl.FS(), sc.dims, sc.stripes, sc.stripeSize)
	if err != nil {
		t.Fatal(err)
	}
	sub := layout.Slab{Start: []int64{0, 0, 0}, Count: sc.dims}
	slabs := climate.SplitAlongDim(sub, 1, sc.nranks)
	aggrs := adio.SpreadAggregators(sc.nranks, sc.naggr)
	cache := &adio.PlanCache{}

	mkJob := func(name string, stats *cc.Stats, val *float64) *cluster.Job {
		return &cluster.Job{Name: name, Main: func(ctx *cluster.JobContext, r *mpi.Rank) error {
			me := ctx.Comm().RankOf(r)
			res, err := cc.ObjectGetVara(r, ctx.Comm(), ctx.Client(r), cc.IO{
				DS: ds, VarID: id, Slab: slabs[me],
				Reduce: cc.AllToOne, Aggregators: aggrs,
				Params: adio.Params{CB: sc.cb, Pipeline: true, PlanCache: cache,
					RebalanceRounds: 4},
				Stats: stats,
			}, cc.Max{})
			if me == 0 {
				*val = res.Value
			}
			return err
		}}
	}
	var st1, st2 cc.Stats
	var v1, v2 float64
	cl.Submit(mkJob("during-straggler", &st1, &v1))
	// Arrives well after the straggler recovered at t=2.
	cl.SubmitAt(10, mkJob("after-recovery", &st2, &v2))
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	want := sc.truth()
	mustBits(t, "during straggler", v1, want)
	mustBits(t, "after recovery", v2, want)
	if st1.Rebalances == 0 {
		t.Fatalf("first job never rebalanced — the straggler was not observed: %+v", st1)
	}
	if st2.Rebalances != 0 {
		t.Fatalf("second job rebalanced against a recovered OST: %+v", st2)
	}

	// The same rebalanced round must be cached under two health epochs, with
	// materially different plans (straggler-weighted vs even domains).
	split, differ := false, false
	for round := 1; round < 4; round++ {
		if plans := cache.RoundPlans(round); len(plans) >= 2 {
			split = true
			if !reflect.DeepEqual(plans[0], plans[1]) {
				differ = true
			}
		}
	}
	if !split {
		t.Fatal("no rebalanced round was cached under more than one health epoch: " +
			"the recovered job reused stale straggler-skewed plans")
	}
	if !differ {
		t.Fatal("every rebalanced round's two epoch plans are identical — " +
			"the health-weighted replan never changed the file domains")
	}
}

// TestFigFaultsDeterministic asserts the rendered experiment output is
// byte-identical across runs with the same (default) seed.
func TestFigFaultsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faults figure twice")
	}
	cfg := Config{Quick: true}
	t1, err := FigFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := FigFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Fatalf("faults figure is not deterministic:\n%s\nvs\n%s", t1, t2)
	}
	// The plans degrade a NIC at every level, and the counters note reads
	// the machine that ran the leg: the count used to be a field nothing
	// filled, and printed 0 on every run.
	if out := t1.String(); !strings.Contains(out, "level-3 mitigation counters: ") ||
		strings.Contains(out, "degraded-msgs 0\n") {
		t.Errorf("level-3 counters note reports no degraded messages:\n%s", out)
	}
}
