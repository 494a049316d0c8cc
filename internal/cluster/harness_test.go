package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// This file is the scheduling-policy property harness: a seed-driven random
// job-mix generator plus invariant checkers that every registered policy
// must pass. Job bodies are pure virtual compute with no collectives, so a
// job's service time is exactly its generated duration and EstCost can be
// made exact — which turns the EASY no-head-delay property into a hard
// invariant rather than a statistical tendency.

const harnessRanks = 8

// mixJob is one generated submission.
type mixJob struct {
	name     string
	width    int     // 1..harnessRanks
	dur      float64 // exact virtual service time
	arrive   float64 // 0 = batch submission, else SubmitAt time (unique per mix)
	deadline float64 // relative; 0 = none
	prio     int
	tenant   string // "", "t1", "t2"
}

// genMix draws a random job mix: 6-16 jobs, widths across the whole pool,
// ~40% staggered arrivals, ~25% with (sometimes binding) deadlines, three
// tenants. Arrival times are offset by the submission index so no two
// arrivals (or an arrival and a completion of a different submission chain)
// ever collide on the virtual clock, keeping FIFO admission order
// unambiguous for the reference simulator.
func genMix(rng *rand.Rand) []mixJob {
	n := 6 + rng.Intn(11)
	mix := make([]mixJob, n)
	tenants := []string{"", "t1", "t2"}
	for i := range mix {
		width := 1 + rng.Intn(harnessRanks)
		dur := 0.25 * float64(2+rng.Intn(17)) // 0.5 .. 4.5
		arrive := 0.0
		if rng.Float64() < 0.4 {
			arrive = 0.125*float64(1+rng.Intn(48)) + 0.001*float64(i)
		}
		var deadline float64
		if rng.Float64() < 0.25 {
			deadline = dur * (1.2 + 3*rng.Float64())
		}
		mix[i] = mixJob{
			name: fmt.Sprintf("j%d", i), width: width, dur: dur, arrive: arrive,
			deadline: deadline, prio: rng.Intn(3), tenant: tenants[rng.Intn(3)],
		}
	}
	return mix
}

// pureCompute burns exactly sec virtual seconds on every rank, with no
// communication: End - Start == sec, bit-exactly.
func pureCompute(sec float64) func(ctx *JobContext, r *mpi.Rank) error {
	return func(ctx *JobContext, r *mpi.Rank) error {
		r.Compute(sec)
		return nil
	}
}

// mixOutcome is one policy run over one mix.
type mixOutcome struct {
	results  []*JobResult // in mix order
	makespan float64
	sched    SchedStats
	memo     MemoStats
	events   []byte // JSONL event log; nil unless traced
}

// mixRun is how one mix is executed: the registered policy, whether the
// JSONL event log is captured (traced) and whether decision records are
// interleaved into it (explain), an optional hook run on the fresh cluster
// before any submission, and, when cc is set, the CC metadata job i carries
// on a memo cluster (submitMixCC).
type mixRun struct {
	policy  string
	traced  bool
	explain bool
	setup   func(*Cluster)
	cc      []CCJob
}

// runMix executes mix under the named policy. EstCost is set to the exact
// duration.
func runMix(t *testing.T, policy string, mix []mixJob, traced bool) mixOutcome {
	t.Helper()
	return runMixWith(t, mix, mixRun{policy: policy, traced: traced})
}

func runMixWith(t *testing.T, mix []mixJob, run mixRun) mixOutcome {
	t.Helper()
	spec := Spec{Ranks: harnessRanks, RanksPerNode: 4, Policy: run.policy, Memo: run.cc != nil}
	var buf bytes.Buffer
	var sink *obs.JSONLSink
	if run.traced {
		ot := obs.New()
		sink = obs.NewJSONLSink(&buf)
		ot.AddSink(sink)
		if run.explain {
			ot.EnableDecisions()
		}
		spec.Obs = ot
	}
	c := New(spec)
	if run.cc != nil {
		registerMixDatasets(t, c)
	}
	if run.setup != nil {
		run.setup(c)
	}
	sessions := map[string]*Session{
		"t1": c.Session("t1"), "t2": c.Session("t2"),
	}
	for i, mj := range mix {
		j := &Job{Name: mj.name, Ranks: mj.width, Deadline: mj.deadline,
			Priority: mj.prio, EstCost: mj.dur, Main: pureCompute(mj.dur)}
		if run.cc != nil {
			submitMixCC(c, sessions[mj.tenant], run.cc[i], j, mj.arrive)
			continue
		}
		switch s := sessions[mj.tenant]; {
		case s == nil && mj.arrive == 0:
			c.Submit(j)
		case s == nil:
			c.SubmitAt(mj.arrive, j)
		case mj.arrive == 0:
			s.Submit(j)
		default:
			s.SubmitAt(mj.arrive, j)
		}
	}
	results, err := c.Run()
	if err != nil {
		t.Fatalf("policy %s: Run: %v", run.policy, err)
	}
	out := mixOutcome{results: results, makespan: c.Now(), sched: c.SchedStats(), memo: c.MemoStats()}
	if run.traced {
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		out.events = append([]byte(nil), buf.Bytes()...)
	}
	return out
}

// refFIFO is an independent reference implementation of the strict-FIFO
// discipline: event-driven over arrivals and completions, head-of-queue
// deadline drops, rank-count-fit admission. It predicts every job's exact
// start/end (or drop) time; the fifo policy must match it.
func refFIFO(mix []mixJob) (start, end []float64, dropped []bool) {
	n := len(mix)
	start = make([]float64, n)
	end = make([]float64, n)
	dropped = make([]bool, n)
	for i := range start {
		start[i], end[i] = -1, -1
	}
	type arr struct {
		t float64
		i int
	}
	arrivals := make([]arr, n)
	for i, mj := range mix {
		arrivals[i] = arr{mj.arrive, i}
	}
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].t < arrivals[b].t })
	var queue, running []int
	nfree := harnessRanks
	ai, now := 0, 0.0
	for {
		for ai < len(arrivals) && arrivals[ai].t <= now {
			queue = append(queue, arrivals[ai].i)
			ai++
		}
		keep := running[:0]
		for _, h := range running {
			if end[h] <= now {
				nfree += mix[h].width
			} else {
				keep = append(keep, h)
			}
		}
		running = keep
		for len(queue) > 0 {
			h := queue[0]
			if dl := mix[h].deadline; dl > 0 && now > mix[h].arrive+dl {
				queue = queue[1:]
				start[h], end[h], dropped[h] = now, now, true
				continue
			}
			if mix[h].width > nfree {
				break
			}
			queue = queue[1:]
			start[h], end[h] = now, now+mix[h].dur
			nfree -= mix[h].width
			running = append(running, h)
		}
		next := math.Inf(1)
		if ai < len(arrivals) {
			next = arrivals[ai].t
		}
		for _, h := range running {
			if end[h] < next {
				next = end[h]
			}
		}
		if math.IsInf(next, 1) {
			return
		}
		now = next
	}
}

// checkWorkConservation asserts the machine never idled while a job waited:
// every queued interval [Submit, Start) (or [Submit, drop) for dropped
// jobs) must be covered by the union of other jobs' service intervals — if
// the machine had gone idle with work pending, the policy was obligated to
// admit (every job fits on an empty machine).
func checkWorkConservation(t *testing.T, label string, results []*JobResult) {
	t.Helper()
	const eps = 1e-9
	type iv struct{ s, e float64 }
	var busy []iv
	for _, jr := range results {
		if len(jr.Ranks) > 0 && jr.End > jr.Start {
			busy = append(busy, iv{jr.Start, jr.End})
		}
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i].s < busy[j].s })
	var merged []iv
	for _, b := range busy {
		if n := len(merged); n > 0 && b.s <= merged[n-1].e+eps {
			if b.e > merged[n-1].e {
				merged[n-1].e = b.e
			}
			continue
		}
		merged = append(merged, b)
	}
	covered := func(s, e float64) bool {
		for _, m := range merged {
			if m.s <= s+eps && m.e >= e-eps {
				return true
			}
		}
		return false
	}
	for _, jr := range results {
		waitEnd := jr.Start
		if errors.Is(jr.Err, ErrDeadlineExpired) {
			waitEnd = jr.End
		}
		if waitEnd-jr.Submit <= eps {
			continue
		}
		if !covered(jr.Submit, waitEnd) {
			t.Errorf("%s: machine idled while %q waited in [%v,%v)",
				label, jr.Job.Name, jr.Submit, waitEnd)
		}
	}
}

// TestPolicyProperties drives every registered policy over a corpus of
// random job mixes (>= 200 each; fewer under -short) and asserts the
// scheduling invariants:
//
//   - the schedule passes AuditResults: no rank double-booking, valid
//     placements, admitted width == requested width;
//   - no starvation: every job either runs to completion or is dropped for
//     an expired deadline — nothing is left behind;
//   - work conservation: the machine never idles while jobs wait;
//   - determinism: two runs of the same (policy, mix) produce identical
//     timings, placements, and makespans — and, for a traced subset of
//     seeds, byte-identical structured event logs;
//   - fifo matches an independent reference FIFO simulator exactly;
//   - easy-backfill never delays a reserved head (slack >= 0, exact
//     estimates), and the corpus actually exercises backfilling.
func TestPolicyProperties(t *testing.T) {
	nseeds := 200
	if testing.Short() {
		nseeds = 50
	}
	const eps = 1e-9
	totalBackfilled := 0
	for seed := 0; seed < nseeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		mix := genMix(rng)
		traced := seed%29 == 0
		for _, pol := range PolicyNames() {
			label := fmt.Sprintf("seed %d policy %s", seed, pol)
			a := runMix(t, pol, mix, traced)
			b := runMix(t, pol, mix, traced)

			// Determinism across two identical runs.
			if a.makespan != b.makespan {
				t.Fatalf("%s: makespan differs across runs: %v vs %v", label, a.makespan, b.makespan)
			}
			for i := range a.results {
				ra, rb := a.results[i], b.results[i]
				if ra.Start != rb.Start || ra.End != rb.End {
					t.Fatalf("%s: job %d timings differ across runs: [%v,%v] vs [%v,%v]",
						label, i, ra.Start, ra.End, rb.Start, rb.End)
				}
				if fmt.Sprint(ra.Ranks) != fmt.Sprint(rb.Ranks) {
					t.Fatalf("%s: job %d placement differs across runs: %v vs %v",
						label, i, ra.Ranks, rb.Ranks)
				}
			}
			if traced && !bytes.Equal(a.events, b.events) {
				t.Fatalf("%s: event logs differ across identical runs", label)
			}

			if err := AuditResults(a.results, harnessRanks); err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			// No starvation: every submission resolved.
			for i, jr := range a.results {
				if jr.Start < 0 || jr.End < 0 {
					t.Fatalf("%s: job %d (%q) never resolved: start=%v end=%v",
						label, i, jr.Job.Name, jr.Start, jr.End)
				}
				if errors.Is(jr.Err, ErrDeadlineExpired) {
					if !jr.DeadlineMiss {
						t.Fatalf("%s: dropped job %d not marked DeadlineMiss", label, i)
					}
				} else if jr.Err != nil {
					t.Fatalf("%s: job %d failed: %v", label, i, jr.Err)
				}
			}

			checkWorkConservation(t, label, a.results)

			if pol == "fifo" {
				start, end, dropped := refFIFO(mix)
				for i, jr := range a.results {
					if got := errors.Is(jr.Err, ErrDeadlineExpired); got != dropped[i] {
						t.Fatalf("%s: job %d dropped=%v, reference says %v", label, i, got, dropped[i])
					}
					if math.Abs(jr.Start-start[i]) > eps || math.Abs(jr.End-end[i]) > eps {
						t.Fatalf("%s: job %d ran [%v,%v], reference FIFO says [%v,%v]",
							label, i, jr.Start, jr.End, start[i], end[i])
					}
				}
			}

			if pol == "easy-backfill" {
				for _, s := range a.sched.Slacks {
					if s < -eps {
						t.Fatalf("%s: backfilling delayed a reserved head by %v", label, -s)
					}
				}
				totalBackfilled += a.sched.Backfilled
			}
		}
	}
	if totalBackfilled == 0 {
		t.Error("property corpus exercised no backfills; generator or policy broken")
	}
}
