package experiments

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/obs"
)

// jobsSetup is the mixed-analysis serving workload: njobs analyses (cycling
// sum / histogram / minloc) over distinct time windows of one climate
// variable, each needing nranks/waves ranks so `waves` jobs fit at once.
type jobsSetup struct {
	nranks, rpn int
	jobRanks    int
	njobs       int
	stripes     int
	stripeSize  int64
	dims        []int64
	win         int64 // time steps per job window
	spe         float64
	memo        bool   // enable the cluster result cache (Spec.Memo)
	policy      string // scheduling policy for the queued runs (Spec.Policy)
}

func newJobsSetup(cfg Config) jobsSetup {
	cfg = cfg.Defaults()
	s := jobsSetup{
		nranks: 64, rpn: 8, jobRanks: 16, njobs: 8,
		stripes: 40, stripeSize: 4 << 20,
		spe: 2e-8, memo: cfg.Memo, policy: cfg.Policy,
	}
	steps := int64(4096 * cfg.Scale)
	ny, nx := int64(256), int64(256)
	if cfg.Quick {
		s.nranks, s.rpn, s.jobRanks = 16, 4, 4
		s.stripes, s.stripeSize = 8, 1<<20
		steps, ny, nx = 256, 128, 128
	}
	// Every window must still split across the job's ranks.
	if min := int64(s.njobs * s.jobRanks); steps < min {
		steps = min
	}
	s.win = steps / int64(s.njobs)
	s.dims = []int64{s.win * int64(s.njobs), ny, nx}
	return s
}

// kind returns job i's analysis, cycling the two reduce modes for coverage.
// Both are bit-deterministic under cross-job contention: AllToOne merges at
// the root in plan order, and AllToAll folds shuffled partials in sender-rank
// order, so even float64 reductions are bit-identical to their solo runs in
// either mode.
func (s jobsSetup) kind(i int) (string, cc.Op, cc.ReduceMode) {
	switch i % 3 {
	case 0:
		return "sum", cc.Sum{}, cc.AllToOne
	case 1:
		return "hist", cc.Histogram{Lo: -40, Hi: 60, Bins: 16}, cc.AllToAll
	default:
		return "minloc", cc.MinLoc{}, cc.AllToOne
	}
}

func (s jobsSetup) job(i, ranks int, deadline float64) cluster.CCJob {
	name, op, red := s.kind(i)
	return cluster.CCJob{
		Name: fmt.Sprintf("%s-%d", name, i), Ranks: ranks, Deadline: deadline,
		Dataset: "climate", VarID: 0,
		Slab: layout.Slab{
			Start: []int64{int64(i) * s.win, 0, 0},
			Count: []int64{s.win, s.dims[1], s.dims[2]},
		},
		SplitDim: 0, Op: op, Reduce: red, SecPerElem: s.spe,
	}
}

// machine builds a cluster with the workload's dataset registered; ot (may
// be nil) installs span tracing on it.
func (s jobsSetup) machine(ranks, maxConc int, ot *obs.Tracer) (*cluster.Cluster, error) {
	cl := cluster.New(cluster.Spec{
		Ranks: ranks, RanksPerNode: s.rpn,
		MaxConcurrent: maxConc, Obs: ot, Memo: s.memo,
		Policy: s.policy,
	})
	ds, varid, err := climate.NewDataset3D(cl.FS(), s.dims, s.stripes, s.stripeSize)
	if err != nil {
		return nil, err
	}
	if varid != 0 {
		return nil, fmt.Errorf("jobs: unexpected varid %d", varid)
	}
	cl.RegisterDataset("climate", ds)
	return cl, nil
}

// Jobs measures the cluster runtime's multi-job scheduling: the mixed
// workload runs three ways — each job alone on a fresh machine, all jobs
// queued serially on one warm machine, and concurrently on disjoint rank
// subsets — with every job's result required to be bit-identical across all
// three, and the concurrent makespan required to beat the serial one.
func Jobs(cfg Config) (*Table, error) {
	s := newJobsSetup(cfg)
	// A generous deadline: never binding on a healthy machine, but exercises
	// the accounting (the note below asserts zero misses).
	deadline := 1e6

	// Solo baselines: one fresh machine per job, sized to the job.
	solos := make([]*cluster.CCResult, s.njobs)
	for i := range solos {
		cl, err := s.machine(s.jobRanks, 0, nil)
		if err != nil {
			return nil, err
		}
		cr := cl.SubmitCC(s.job(i, s.jobRanks, deadline))
		if _, err := cl.Run(); err != nil {
			return nil, err
		}
		if !cr.Valid() {
			return nil, fmt.Errorf("solo %s: %w", cr.Job.Name, cr.Err)
		}
		solos[i] = cr
	}

	// Queued runs: same machine spec, same submissions; only the concurrency
	// cap differs.
	queued := func(maxConc int, ot *obs.Tracer) ([]*cluster.CCResult, float64, int, error) {
		cl, err := s.machine(s.nranks, maxConc, ot)
		if err != nil {
			return nil, 0, 0, err
		}
		sess := cl.Session("jobs")
		crs := make([]*cluster.CCResult, s.njobs)
		for i := range crs {
			crs[i] = sess.SubmitCC(s.job(i, s.jobRanks, deadline))
		}
		if _, err := cl.Run(); err != nil {
			return nil, 0, 0, err
		}
		misses := 0
		for _, cr := range crs {
			if !cr.Valid() {
				return nil, 0, 0, fmt.Errorf("%s: %w", cr.Job.Name, cr.Err)
			}
			if cr.DeadlineMiss {
				misses++
			}
		}
		return crs, cl.Now(), misses, nil
	}
	serial, serialSpan, serialMisses, err := queued(1, nil)
	if err != nil {
		return nil, err
	}
	// Only the concurrent run is traced: it is the run whose schedule the
	// trace and profile-jobs breakdown are meant to explain.
	conc, concSpan, concMisses, err := queued(0, cfg.Obs)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "jobs",
		Title: "Concurrent Mixed Analyses on One Cluster (throughput/latency vs serial)",
		Headers: []string{"job", "ranks", "solo (s)", "serial (s)",
			"concurrent (s)", "queue wait (s)", "identical"},
	}
	same := func(a, b *cluster.CCResult) bool {
		return math.Float64bits(a.Res.Value) == math.Float64bits(b.Res.Value) &&
			reflect.DeepEqual(a.Res.State, b.Res.State)
	}
	allSame := true
	for i := range solos {
		ok := same(solos[i], serial[i]) && same(solos[i], conc[i])
		allSame = allSame && ok
		t.AddRow(conc[i].Job.Name, fmt.Sprintf("%d", s.jobRanks),
			secs(solos[i].Duration()), secs(serial[i].Duration()),
			secs(conc[i].Duration()), secs(conc[i].QueueWait()),
			fmt.Sprintf("%v", ok))
	}
	if !allSame {
		return nil, fmt.Errorf("jobs: results not bit-identical across solo/serial/concurrent runs")
	}
	if concSpan >= serialSpan {
		return nil, fmt.Errorf("jobs: concurrent makespan %.4fs did not beat serial %.4fs",
			concSpan, serialSpan)
	}

	speedup := serialSpan / concSpan
	throughput := float64(s.njobs) / concSpan

	// Scheduler health of the concurrent run: mean queue wait, rank-pool
	// utilization, and the critical path through the queue.
	var meanWait, busy, cpLen float64
	jrs := make([]*cluster.JobResult, len(conc))
	for i, cr := range conc {
		meanWait += cr.QueueWait()
		busy += cr.Duration() * float64(len(cr.Ranks))
		jrs[i] = cr.JobResult
	}
	meanWait /= float64(len(conc))
	utilization := 100 * busy / (concSpan * float64(s.nranks))
	critPath := cluster.CriticalPath(jrs)
	for _, jr := range critPath {
		cpLen += jr.Duration()
	}
	if utilization <= 0 || utilization > 100 {
		return nil, fmt.Errorf("jobs: rank-pool utilization %.1f%% outside (0, 100]", utilization)
	}
	if len(critPath) < 1 {
		return nil, fmt.Errorf("jobs: empty critical path through %d jobs", len(conc))
	}
	t.Notef("%d jobs of %d ranks on a %d-rank cluster (%d at a time)",
		s.njobs, s.jobRanks, s.nranks, s.nranks/s.jobRanks)
	t.Notef("serial makespan %.4fs, concurrent %.4fs: %.2fx speedup, %.2f jobs/vs",
		serialSpan, concSpan, speedup, throughput)
	t.Notef("deadline misses: %d serial, %d concurrent (deadline %.0fs, never binding)",
		serialMisses, concMisses, deadline)
	t.Notef("every job's value and state bit-identical to its solo run")
	t.Notef("concurrent run: mean queue wait %.4fs, rank-pool utilization %.1f%%, critical path %d jobs / %.4fs of service",
		meanWait, utilization, len(critPath), cpLen)
	return t, nil
}
