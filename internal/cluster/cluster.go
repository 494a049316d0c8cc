// Package cluster is the persistent serving runtime: one simulated machine
// (sim Env + fabric + parallel file system + rank pool) built from a single
// declarative Spec, executing a queue of analysis Jobs — sequentially on a
// warm world or concurrently on disjoint rank subsets via mpi
// sub-communicators. It is the only place outside tests that constructs a
// sim.Env; every entry point (examples, cmd/ccrun, internal/experiments)
// builds its world through cluster.New.
//
// Scheduling is pluggable (Spec.Policy, see policy.go): the default "fifo"
// policy admits the head of the queue onto the lowest-numbered free ranks
// as soon as enough are free (and the concurrency cap allows), with a head
// that does not fit blocking the queue; "easy-backfill", "priority", and
// "fairshare" reorder admission under the same mechanism. Every policy is
// deterministic and starvation-free on a finite queue. Each admitted job
// gets its own mpi tag namespace, so concurrent jobs can never match each
// other's messages. Jobs carry optional deadlines: a job whose deadline
// passes while queued is dropped with ErrDeadlineExpired; a job that
// finishes late is marked DeadlineMiss.
//
// Everything runs on the virtual clock: the same Spec and job list produce
// bit-identical per-job results and makespans on every run.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Spec declares one simulated machine.
type Spec struct {
	// Ranks is the size of the rank pool (required).
	Ranks int
	// RanksPerNode sets the fabric topology (0 = fabric default).
	RanksPerNode int
	// FS configures the parallel file system (zero value = Lustre-like
	// defaults: 156 OSTs, 35 GB/s aggregate).
	FS pfs.Params
	// MaxConcurrent caps how many jobs run at once; 0 means unlimited
	// (bounded only by rank-count fit). 1 serializes the queue.
	MaxConcurrent int
	// Policy selects the scheduling policy by registry name: "fifo" (the
	// default, and the empty-string default), "easy-backfill", "priority",
	// or "fairshare" — see policy.go. New panics on an
	// unknown name.
	Policy string
	// Memo enables cross-job result memoization and shared-window read
	// coalescing for CC jobs (see memo.go): identical jobs are served from a
	// result cache or attached to an in-flight twin, and overlapping jobs
	// share one physical pass. All shared results are bit-identical to cold
	// runs.
	Memo bool
	// MemoCap bounds the result cache's entry count when Memo is set: the
	// oldest-inserted entries are evicted first once the cache exceeds it.
	// 0 applies the default cap (65536 entries); negative means unlimited.
	// Eviction only costs recomputation — capped runs stay bit-identical.
	MemoCap int
	// Obs, when non-nil, installs a structured span tracer + metrics registry
	// across every layer of the machine (scheduler, cc, adio, pfs, mpi); see
	// internal/obs. Nil disables span tracing at zero cost on hot paths.
	Obs *obs.Tracer
}

// Cluster is one running machine instance plus its job queue. Create with
// New, submit jobs (directly or through Sessions), then call Run exactly
// once; the virtual clock advances only inside Run.
type Cluster struct {
	spec  Spec
	env   *sim.Env
	w     *mpi.World
	fs    *pfs.FS
	rt    *obs.RankTime // every rank's classified time, fed by mpi and pfs
	obs   *obs.Tracer   // from Spec.Obs; nil = span tracing disabled
	world *mpi.Comm

	datasets map[string]*ncfile.Dataset
	plans    map[string]*adio.PlanCache
	memo     *memoTable // result cache; nil unless Spec.Memo

	policy    Policy             // admission/placement policy (Spec.Policy)
	tenantUse map[string]float64 // rank-seconds of service charged per tenant

	// Dimensional telemetry caches (dimensional.go): labeled-family handles
	// built once and reused, plus the per-class wait windows behind -series.
	tenantMxCache     map[string]*tenantMetrics
	ostBusyG, ostLatG []*obs.Gauge
	nicTxG, nicRxG    []*obs.Gauge
	memoG             *memoGauges
	classWin          map[string]*waitWindow

	// Decision tracing (decisions.go); all dormant unless the obs tracer has
	// decision tracing enabled.
	decRound int              // admission-round counter (1-based in records)
	decBlame map[int]decCause // per-round policy blames, keyed by job seq
	decHeld  []decCause       // by job seq: the cause of the job's last written skip
	decAdmit decAdmitTag      // admission reason in flight (AdmitBackfilled)
	schedQ   *Queue           // the scheduler's queue view, for snapshots

	pending    pendQueue    // arrival-ordered admission queue (see pendqueue.go)
	admitWork  int          // heap comparisons made by the indexed policies (scaling gate)
	futureSubs int          // SubmitAt callbacks not yet fired
	results    []*JobResult // every submission, in submission order
	assign     []*sim.Mailbox[*JobContext]
	done       *sim.Mailbox[doneMsg]
	ran        bool
}

// New builds the machine described by spec. No process runs until Run.
func New(spec Spec) *Cluster {
	if spec.Ranks <= 0 {
		panic(fmt.Sprintf("cluster: Spec.Ranks %d", spec.Ranks))
	}
	env := sim.NewEnv()
	w := mpi.NewWorld(env, spec.Ranks, fabric.Params{RanksPerNode: spec.RanksPerNode})
	c := &Cluster{
		spec: spec, env: env, w: w, fs: pfs.New(env, spec.FS),
		rt: obs.NewRankTime(spec.Ranks), obs: spec.Obs,
		datasets:  make(map[string]*ncfile.Dataset),
		plans:     make(map[string]*adio.PlanCache),
		tenantUse: make(map[string]float64),
	}
	c.policy = newPolicy(spec.Policy, c)
	if spec.Memo {
		memoCap := spec.MemoCap
		switch {
		case memoCap == 0:
			memoCap = defaultMemoCap
		case memoCap < 0:
			memoCap = 0 // unlimited
		}
		c.memo = newMemoTable(memoCap)
	}
	w.SetRankTime(c.rt)
	if c.obs != nil {
		w.SetObs(c.obs)
		c.fs.SetObs(c.obs)
		c.obs.SetProcessName(0, "cluster scheduler")
	}
	c.world = w.Comm()
	c.done = sim.NewMailbox[doneMsg](env, "cluster.done")
	c.assign = make([]*sim.Mailbox[*JobContext], spec.Ranks)
	for i := range c.assign {
		c.assign[i] = sim.NewMailbox[*JobContext](env, fmt.Sprintf("cluster.assign%d", i))
	}
	return c
}

// Env returns the simulation environment (for fault plans and tests).
func (c *Cluster) Env() *sim.Env { return c.env }

// World returns the MPI world. Fault plans that install rank dilation must
// be applied before Run.
func (c *Cluster) World() *mpi.World { return c.w }

// FS returns the parallel file system.
func (c *Cluster) FS() *pfs.FS { return c.fs }

// Comm returns the world communicator.
func (c *Cluster) Comm() *mpi.Comm { return c.world }

// RankTime returns where every rank's virtual time went: per-(rank, kind)
// totals on every machine, the bucketed CPU profile after ProfileRanks.
func (c *Cluster) RankTime() *obs.RankTime { return c.rt }

// ProfileRanks makes the machine's RankTime keep the bucketed series behind
// its CPU profile, at the given bucket width in virtual seconds. It must
// precede Run.
func (c *Cluster) ProfileRanks(bucket float64) { c.rt.Profile(bucket) }

// Now returns the current virtual time (after Run: the makespan).
func (c *Cluster) Now() float64 { return c.env.Now() }

// Client builds a storage client for a rank, accounting to the machine's
// RankTime.
func (c *Cluster) Client(r *mpi.Rank) *pfs.Client {
	return c.fs.Client(r.Proc(), r.Rank(), c.rt)
}

// RegisterDataset publishes ds under name so jobs can share the handle.
func (c *Cluster) RegisterDataset(name string, ds *ncfile.Dataset) {
	if _, dup := c.datasets[name]; dup {
		panic(fmt.Sprintf("cluster: dataset %q already registered", name))
	}
	c.datasets[name] = ds
}

// MemoStats returns the result cache's counters; all zero unless Spec.Memo
// was set. Valid after Run.
func (c *Cluster) MemoStats() MemoStats {
	if c.memo == nil {
		return MemoStats{}
	}
	return c.memo.stats
}

// Dataset returns the dataset registered under name.
func (c *Cluster) Dataset(name string) *ncfile.Dataset {
	ds, ok := c.datasets[name]
	if !ok {
		panic(fmt.Sprintf("cluster: no dataset %q registered", name))
	}
	return ds
}

// PlanCache returns the shared collective-I/O plan cache registered under
// key, creating it on first use. Jobs naming the same key (Job.PlanKey)
// reuse each other's plans; callers must only share a key between jobs with
// identical access shapes (same requests per comm rank), since a cache
// serves one plan per collective call.
func (c *Cluster) PlanCache(key string) *adio.PlanCache {
	pc, ok := c.plans[key]
	if !ok {
		pc = &adio.PlanCache{}
		c.plans[key] = pc
	}
	return pc
}

// Run starts the rank pool and the scheduler, executes the queue to
// completion, and returns every submission's result in submission order.
// It must be called exactly once.
func (c *Cluster) Run() ([]*JobResult, error) {
	if c.ran {
		panic("cluster: Run called twice")
	}
	c.ran = true
	c.w.Go(c.worker)
	c.env.Spawn("scheduler", c.scheduler)
	if err := c.env.Run(); err != nil {
		return nil, err
	}
	c.finishObs()
	c.publishTelemetry(c.env.Now(), 0, 0)
	return c.results, nil
}

// finishObs copies the run's aggregate statistics into the metrics registry
// at one deterministic point — the end of Run — and computes the whole-run
// gauges (makespan, rank-pool utilization).
func (c *Cluster) finishObs() {
	ot := c.obs
	if ot == nil {
		return
	}
	m := ot.Metrics()
	makespan := c.env.Now()
	m.Gauge("cluster_makespan_seconds").Set(makespan)
	var busy float64
	for _, jr := range c.results {
		if d := jr.Duration(); d > 0 {
			busy += d * float64(len(jr.Ranks))
		}
	}
	if makespan > 0 {
		m.Gauge("cluster_rank_utilization_pct").
			Set(100 * busy / (makespan * float64(c.spec.Ranks)))
	}
	// Per-tenant delivered-service shares (the fairshare policy's deficit
	// counters, tracked under every policy): one gauge per tenant, as a
	// percentage of all delivered rank-seconds. The total is summed in
	// tenant order: a float sum in map order differs from run to run.
	tenants := make([]string, 0, len(c.tenantUse))
	for tn := range c.tenantUse {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	var totUse float64
	for _, tn := range tenants {
		totUse += c.tenantUse[tn]
	}
	if totUse > 0 {
		shares := m.GaugeVec("cluster_tenant_share_pct", "tenant")
		for _, tn := range tenants {
			shares.With(labelOrDefault(tn)).Set(100 * c.tenantUse[tn] / totUse)
		}
	}
	c.mirrorTotals()
}

// mirrorTotals syncs the registry's aggregate families with the totals
// accumulated outside it (fabric and pfs statistics, rank time, memo stats).
// The layers count with or without a registry, so their numbers are the
// source and this copy is the only way one reaches the registry. It is
// idempotent — Counter.Set / Gauge.Set against monotone sources — so the
// telemetry plane can call it at every publish point and finishObs can call
// it once more at the end without double counting.
func (c *Cluster) mirrorTotals() {
	m := c.obs.Metrics()
	m.Counter("cluster_jobs_submitted").Set(float64(len(c.results)))
	net := c.w.Net()
	m.Counter("mpi_messages").Set(float64(net.Messages))
	m.Counter("mpi_inter_messages").Set(float64(net.InterMessages))
	m.Counter("mpi_bytes_on_wire").Set(float64(net.BytesOnWire))
	m.Counter("mpi_bytes_intra").Set(float64(net.BytesIntra))
	m.Counter("mpi_degraded_messages").Set(float64(net.DegradedMessages))
	m.Counter("pfs_read_bytes").Set(float64(c.fs.BytesRead))
	m.Counter("pfs_write_bytes").Set(float64(c.fs.BytesWritten))
	m.Counter("pfs_requests").Set(float64(c.fs.Requests))
	m.Counter("pfs_timeouts").Set(float64(c.fs.Timeouts))
	m.Counter("pfs_retries").Set(float64(c.fs.Retries))
	m.Counter("rank_time_user_seconds").Set(c.rt.Total(obs.Compute))
	m.Counter("rank_time_sys_seconds").Set(c.rt.Total(obs.Sys))
	m.Counter("rank_time_wait_io_seconds").Set(c.rt.Total(obs.WaitIO))
	m.Counter("rank_time_wait_comm_seconds").Set(c.rt.Total(obs.WaitComm))
	c.mirrorLabeled(m)
}

// publishTelemetry is the telemetry plane's publish point: it syncs the
// external totals into the registry, evaluates SLO rules, and (when a live
// cell is installed) publishes a consistent Frame — registry snapshot, job
// table, per-OST read latency, SLO status — for the HTTP exporter and the
// dashboard. Called by the scheduler at round boundaries and once more at
// the end of Run; everything happens at deterministic virtual-clock points,
// so enabling live telemetry never perturbs results or event logs.
func (c *Cluster) publishTelemetry(now float64, queueDepth, ranksBusy int) {
	ot := c.obs
	if ot == nil {
		return
	}
	live, slo, ser := ot.Live(), ot.SLOEngine(), ot.Series()
	if live == nil && slo == nil && ser == nil {
		return
	}
	c.mirrorTotals()
	slo.Eval(ot, now)
	if ser != nil {
		c.sampleSeries(ser, now, queueDepth, ranksBusy)
	}
	if live == nil {
		return
	}
	jobs := make([]obs.JobState, 0, len(c.results))
	for _, jr := range c.results {
		if jr.Submit > now {
			continue // SubmitAt arrival still in the future
		}
		js := obs.JobState{Name: jr.Job.Name, Ranks: jr.Job.Ranks,
			Submit: jr.Submit, Start: jr.Start, End: jr.End}
		switch {
		case jr.Err == ErrDeadlineExpired:
			js.State = "dropped"
		case jr.End >= 0 && jr.Err != nil:
			js.State = "error"
		case jr.MemoHit:
			js.State = "memo-hit"
		case jr.End >= 0 && jr.CoalescedWith != nil:
			js.State = "coalesced"
		case jr.End >= 0:
			js.State = "done"
		case jr.Start >= 0:
			js.State = "running"
		default:
			js.State = "queued"
		}
		jobs = append(jobs, js)
	}
	live.Publish(&obs.Frame{
		Now:        now,
		QueueDepth: queueDepth,
		RanksBusy:  ranksBusy,
		RanksTotal: c.spec.Ranks,
		Jobs:       jobs,
		OSTReadLat: c.fs.OSTReadLatency(),
		Reg:        ot.Metrics().Snapshot(),
		SLO:        slo.Status(),
		Decisions:  ot.DecisionsSnapshot(),
	})
}

// RunSPMD submits a single job spanning every rank, runs the cluster, and
// returns the virtual makespan — the one-shot shape the examples and
// experiments use.
func (c *Cluster) RunSPMD(name string, main func(ctx *JobContext, r *mpi.Rank) error) (float64, error) {
	jr := c.Submit(&Job{Name: name, Main: main})
	if _, err := c.Run(); err != nil {
		return 0, err
	}
	return c.env.Now(), jr.Err
}

// TotalStats sums the per-job stats of every completed job.
func (c *Cluster) TotalStats() cc.Stats {
	var tot cc.Stats
	for _, jr := range c.results {
		tot.Add(jr.Stats)
	}
	return tot
}
