package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// jobPhases accumulates one job's rank-seconds per runtime phase, summed
// over the job's ranks from the span trace.
type jobPhases struct {
	read, mapp, shuffle, reduce float64
}

// ProfileJobs runs the mixed-analysis serving workload concurrently under a
// span tracer and renders what the trace shows: a per-job phase breakdown
// (read / map / shuffle / reduce rank-seconds) plus the critical path of the
// queue — the chain of jobs that determined the makespan. With `ccexp
// -trace`, the same tracer's spans are exported for Perfetto.
func ProfileJobs(cfg Config) (*Table, error) {
	s := newJobsSetup(cfg)
	ot := cfg.Obs
	if ot == nil {
		ot = obs.New()
	}
	ot.KeepSpans(true) // the phase columns are folded from this run's spans
	cl, err := s.machine(s.nranks, 0, ot)
	if err != nil {
		return nil, err
	}
	sess := cl.Session("profile-jobs")
	crs := make([]*cluster.CCResult, s.njobs)
	for i := range crs {
		crs[i] = sess.SubmitCC(s.job(i, s.jobRanks, 0))
	}
	if _, err := cl.Run(); err != nil {
		return nil, err
	}
	jrs := make([]*cluster.JobResult, len(crs))
	for i, cr := range crs {
		if !cr.Valid() {
			return nil, fmt.Errorf("%s: %w", cr.Job.Name, cr.Err)
		}
		jrs[i] = cr.JobResult
	}

	// Fold span durations into per-job phase totals. Jobs are keyed by their
	// trace pid; the four phase names never overlap in time on one rank, so
	// the sums partition each rank's busy time without double counting.
	byPID := make(map[int]*jobPhases)
	ot.EachSpan(func(sv obs.SpanView) {
		ph := byPID[sv.PID]
		if ph == nil {
			ph = &jobPhases{}
			byPID[sv.PID] = ph
		}
		d := sv.End - sv.Start
		switch sv.Name {
		case "adio.read":
			ph.read += d
		case "cc.map":
			ph.mapp += d
		case "adio.shuffle":
			ph.shuffle += d
		case "cc.reduce":
			ph.reduce += d
		}
	})

	t := &Table{
		ID:    "profile-jobs",
		Title: "Per-Job Phase Breakdown of the Mixed-Analysis Queue (from the span trace)",
		Headers: []string{"job", "queue wait (s)", "service (s)",
			"read (rank-s)", "map (rank-s)", "shuffle (rank-s)", "reduce (rank-s)"},
	}
	for i, cr := range crs {
		ph := byPID[cr.TracePID()]
		if ph == nil {
			return nil, fmt.Errorf("profile-jobs: no spans recorded for job %d (pid %d)",
				i, cr.TracePID())
		}
		t.AddRow(cr.Job.Name, secs(cr.QueueWait()), secs(cr.Duration()),
			secs(ph.read), secs(ph.mapp), secs(ph.shuffle), secs(ph.reduce))
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
