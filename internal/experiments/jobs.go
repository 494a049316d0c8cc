package experiments

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/workload"
)

// jobsSetup is the mixed-analysis serving workload: njobs analyses (cycling
// sum / histogram / minloc) over distinct time windows of one climate
// variable, each needing nranks/waves ranks so `waves` jobs fit at once.
// Every serving experiment runs its stream as a workload trace on a machine
// of this shape (trace).
type jobsSetup struct {
	nranks, rpn int
	jobRanks    int
	njobs       int
	ds          workload.DatasetSpec // the one variable every job reads
	win         int64                // time steps per job window
	spe         float64
	memo        bool   // enable the cluster result cache (Spec.Memo)
	policy      string // scheduling policy for the queued runs (Spec.Policy)
}

func newJobsSetup(cfg Config) jobsSetup {
	cfg = cfg.Defaults()
	s := jobsSetup{
		nranks: 64, rpn: 8, jobRanks: 16, njobs: 8,
		ds:  workload.DatasetSpec{Name: "climate", StripeCount: 40, StripeSize: 4 << 20},
		spe: 2e-8, memo: cfg.Memo, policy: cfg.Policy,
	}
	steps := int64(4096 * cfg.Scale)
	ny, nx := int64(256), int64(256)
	if cfg.Quick {
		s.nranks, s.rpn, s.jobRanks = 16, 4, 4
		s.ds.StripeCount, s.ds.StripeSize = 8, 1<<20
		steps, ny, nx = 256, 128, 128
	}
	// Every window must still split across the job's ranks.
	if min := int64(s.njobs * s.jobRanks); steps < min {
		steps = min
	}
	s.win = steps / int64(s.njobs)
	s.ds.Dims = []int64{s.win * int64(s.njobs), ny, nx}
	return s
}

// mixOps are the analyses the mix cycles through, with the reduce mode each
// runs in. Both modes are bit-deterministic under cross-job contention:
// AllToOne merges at the root in plan order, and AllToAll folds shuffled
// partials in sender-rank order, so even float64 reductions are
// bit-identical to their solo runs in either mode.
var mixOps = [3]struct {
	name, op string
	reduce   cc.ReduceMode
}{
	{"sum", "sum", cc.AllToOne},
	{"hist", "hist:-40:60:16", cc.AllToAll},
	{"minloc", "minloc", cc.AllToOne},
}

// analysis is job i of the mix, submitted at time 0 by tenant on ranks
// ranks: the mix's i-th analysis over window i of the variable.
func (s jobsSetup) analysis(tenant string, i, ranks int) workload.Submission {
	m := mixOps[i%len(mixOps)]
	return workload.Submission{
		Tenant: tenant, Name: fmt.Sprintf("%s-%d", m.name, i), Dataset: s.ds.Name,
		Op:    m.op,
		Start: []int64{int64(i) * s.win, 0, 0},
		Count: []int64{s.win, s.ds.Dims[1], s.ds.Dims[2]},
		Ranks: ranks, Reduce: int(m.reduce), SecPerElem: s.spe,
	}
}

// mix is the njobs analyses of the mix in order, submitted by tenant on
// jobRanks ranks each.
func (s jobsSetup) mix(tenant string) []workload.Submission {
	jobs := make([]workload.Submission, s.njobs)
	for i := range jobs {
		jobs[i] = s.analysis(tenant, i, s.jobRanks)
	}
	return jobs
}

// trace is jobs as a trace on a machine of ranks ranks running at most
// maxConc jobs at a time (0: no cap), with the mix's dataset.
func (s jobsSetup) trace(ranks, maxConc int, jobs []workload.Submission) *workload.Trace {
	return &workload.Trace{
		Machine: workload.Machine{
			Ranks: ranks, RanksPerNode: s.rpn, Policy: s.policy,
			Memo: s.memo, MaxConcurrent: maxConc,
		},
		Datasets: []workload.DatasetSpec{s.ds},
		Jobs:     jobs,
	}
}

// runTrace runs tr on a fresh machine (with ot as its telemetry plane, may
// be nil) and returns the machine and every job's result in submission
// order; a job that was not served is an error.
func runTrace(tr *workload.Trace, ot *obs.Tracer) (*cluster.Cluster, []*cluster.CCResult, error) {
	cl, subs, err := workload.Run(tr, ot)
	if err != nil {
		return nil, nil, err
	}
	crs := make([]*cluster.CCResult, len(subs))
	for i, sub := range subs {
		if !sub.Res.Valid() {
			return nil, nil, fmt.Errorf("%s: %w", sub.Sub.Name, sub.Res.Err)
		}
		crs[i] = sub.Res
	}
	return cl, crs, nil
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

	stream := s.mix("jobs")
	for i := range stream {
		stream[i].Deadline = deadline
	}

	// Solo baselines: one fresh machine per job, sized to the job.
	solos := make([]*cluster.CCResult, s.njobs)
	for i := range solos {
		_, crs, err := runTrace(s.trace(s.jobRanks, 0, stream[i:i+1]), nil)
		if err != nil {
			return nil, fmt.Errorf("solo: %w", err)
		}
		solos[i] = crs[0]
	}

	// Queued runs: same machine spec, same submissions; only the concurrency
	// cap differs.
	queued := func(maxConc int, ot *obs.Tracer) ([]*cluster.CCResult, float64, int, error) {
		cl, crs, err := runTrace(s.trace(s.nranks, maxConc, stream), ot)
		if err != nil {
			return nil, 0, 0, err
		}
		misses := 0
		for _, cr := range crs {
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
