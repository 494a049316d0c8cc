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

// Multiuser measures cross-job result memoization and shared-window read
// coalescing (cluster.Spec.Memo) on a multi-user serving workload: several
// users analyze the same few time windows of one climate variable, so the
// cluster sees duplicate jobs (served from the result cache or attached to an
// in-flight twin), exact-shape jobs with different operators, and contained
// sub-window jobs (both fused onto a donor's physical pass). The identical
// submission schedule runs twice — result cache off ("cold") and on ("warm")
// — and every job's result must be bit-identical across the two runs, with
// the warm makespan strictly better.
//
// Per window, the four first-wave jobs are: a Sum donor, a duplicate Sum
// (waiter on the in-flight donor), a MinLoc with the donor's exact shape
// (order-sensitive, so only exact-shape fusion is eligible), and a Histogram
// over a contained sub-window (order-invariant, fused through a window
// clip). A second wave of duplicate Sums arrives after everything finished
// and is served entirely from the completed-result cache.
func Multiuser(cfg Config) (*Table, error) {
	s := newJobsSetup(cfg)
	const nwin = 3

	// job is a user's analysis of window i, or of the middle half of the
	// window's time extent (contained, not equal) when half is set.
	job := func(name, op string, i int, half bool) workload.Submission {
		j := s.analysis("users", i, s.jobRanks)
		j.Name = fmt.Sprintf("%s-w%d", name, i)
		j.Op, j.Reduce = op, int(cc.AllToOne)
		if half {
			j.Start[0] += j.Count[0] / 4
			j.Count[0] /= 2
		}
		return j
	}
	var wave1, wave2 []workload.Submission
	for i := 0; i < nwin; i++ {
		wave1 = append(wave1, job("u0-sum", "sum", i, false), job("u1-sum", "sum", i, false),
			job("u1-minloc", "minloc", i, false), job("u2-hist", "hist:-40:60:16", i, true))
		wave2 = append(wave2, job("u3-sum", "sum", i, false))
	}
	run := func(memo bool, jobs []workload.Submission, ot *obs.Tracer) ([]*cluster.CCResult, float64, cluster.MemoStats, error) {
		sm := s
		sm.memo = memo
		cl, crs, err := runTrace(sm.trace(s.nranks, 0, jobs), ot)
		if err != nil {
			return nil, 0, cluster.MemoStats{}, err
		}
		return crs, cl.Now(), cl.MemoStats(), nil
	}

	// Probe: first wave only, cold — fixes a deterministic second-wave
	// arrival time past both measured runs' first waves.
	_, probeSpan, _, err := run(false, wave1, nil)
	if err != nil {
		return nil, err
	}
	for i := range wave2 {
		wave2[i].T = 1.25 * probeSpan
	}
	both := append(wave1, wave2...)

	cold, coldSpan, _, err := run(false, both, nil)
	if err != nil {
		return nil, err
	}
	// Only the warm run is traced: it is the one whose schedule (fused
	// passes, instant cache hits) the trace is meant to explain.
	warm, warmSpan, stats, err := run(true, both, cfg.Obs)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "multiuser",
		Title:   "Multi-User Serving with Result Memoization + Read Coalescing (warm vs cold)",
		Headers: []string{"job", "cold (s)", "warm (s)", "warm path", "identical"},
	}
	path := func(cr *cluster.CCResult) string {
		switch {
		case cr.MemoHit:
			return "memo-hit"
		case cr.CoalescedWith != nil:
			return "shared w/ " + cr.CoalescedWith.Job.Name
		default:
			return "ran"
		}
	}
	allSame := true
	for i := range cold {
		ok := math.Float64bits(cold[i].Res.Value) == math.Float64bits(warm[i].Res.Value) &&
			reflect.DeepEqual(cold[i].Res.State, warm[i].Res.State)
		allSame = allSame && ok
		t.AddRow(warm[i].Job.Name, secs(cold[i].Duration()), secs(warm[i].Duration()),
			path(warm[i]), fmt.Sprintf("%v", ok))
	}
	if !allSame {
		return nil, fmt.Errorf("multiuser: warm results not bit-identical to cold runs")
	}
	if warmSpan >= coldSpan {
		return nil, fmt.Errorf("multiuser: warm makespan %.4fs did not beat cold %.4fs",
			warmSpan, coldSpan)
	}
	// All three sharing regimes must engage, over at least one physical pass.
	if stats.Hits < 1 || stats.Waiters < 1 || stats.Coalesced < 1 || stats.Misses < 1 || stats.BytesSaved <= 0 {
		return nil, fmt.Errorf("multiuser: memo layer never engaged: %+v", stats)
	}

	speedup := coldSpan / warmSpan
	t.Notef("%d jobs (%d first wave + %d second wave) of %d ranks on a %d-rank cluster",
		len(warm), 4*nwin, nwin, s.jobRanks, s.nranks)
	t.Notef("cold makespan %.4fs, warm %.4fs: %.2fx speedup with the result cache on",
		coldSpan, warmSpan, speedup)
	t.Notef("warm run: %d physical passes served %d jobs (%d cache hits, %d waiters, %d coalesced), %.1f MB not re-read",
		stats.Misses, len(warm), stats.Hits, stats.Waiters, stats.Coalesced,
		float64(stats.BytesSaved)/1e6)
	t.Notef("every warm result bit-identical to its cold run (values and states)")
	return t, nil
}
