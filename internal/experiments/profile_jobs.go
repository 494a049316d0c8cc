package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/report"
)

// ProfileJobs runs the mixed-analysis serving workload concurrently under a
// span tracer and renders what the trace shows: a per-job phase breakdown
// (read / map / shuffle / reduce rank-seconds) plus the critical path of the
// queue — the chain of jobs that determined the makespan. The phase columns
// are report's fold of the run's spans, attached to its tracer as a sink;
// with `ccexp -trace`, the same spans are exported for Perfetto.
func ProfileJobs(cfg Config) (*Table, error) {
	s := newJobsSetup(cfg)
	ot := cfg.Obs
	if ot == nil {
		ot = obs.New()
	}
	fold := report.New()
	ot.AddSink(fold)
	cl, crs, err := runTrace(s.trace(s.nranks, 0, s.mix("profile-jobs")), ot)
	if err != nil {
		return nil, err
	}
	jrs := make([]*cluster.JobResult, len(crs))
	for i, cr := range crs {
		jrs[i] = cr.JobResult
	}

	t := &Table{
		ID:    "profile-jobs",
		Title: "Per-Job Phase Breakdown of the Mixed-Analysis Queue (from the span trace)",
		Headers: []string{"job", "queue wait (s)", "service (s)",
			"read (rank-s)", "map (rank-s)", "shuffle (rank-s)", "reduce (rank-s)"},
	}
	// The four phases never overlap in time on one rank, so the sums
	// partition each rank's busy time without double counting.
	for i, cr := range crs {
		js := fold.Job(cr.TracePID())
		if !js.Seen[report.SlotGet] {
			return nil, fmt.Errorf("profile-jobs: no cc.get span recorded for job %d (pid %d)",
				i, cr.TracePID())
		}
		t.AddRow(cr.Job.Name, secs(cr.QueueWait()), secs(cr.Duration()),
			secs(js.Sec[report.SlotRead]), secs(js.Sec[report.SlotMap]),
			secs(js.Sec[report.SlotShuffle]), secs(js.Sec[report.SlotReduce]))
	}

	critPath := cluster.CriticalPath(jrs)
	var names []string
	var cpLen float64
	for _, jr := range critPath {
		names = append(names, jr.Job.Name)
		cpLen += jr.Duration()
	}
	t.Notef("%d jobs of %d ranks on a %d-rank cluster, makespan %.4fs, %d spans recorded",
		s.njobs, s.jobRanks, s.nranks, cl.Now(), ot.NumSpans())
	t.Notef("critical path (%d jobs, %.4fs of service): %s",
		len(critPath), cpLen, strings.Join(names, " -> "))
	t.Notef("phase columns are rank-seconds summed over the job's ranks; aggregator-only phases (read/shuffle) count aggregator ranks only")
	return t, nil
}
