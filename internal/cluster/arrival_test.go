package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// This file pins the arrival semantics of SubmitAt that the workload plane
// (internal/workload) leans on: simultaneous arrivals are admitted in
// submission order (the sim's (time, seq) tie-break), arrivals that collide
// with completions neither deadlock nor lose a wakeup, and a queued arrival
// whose deadline expires before it can be admitted is dropped — never run.

// TestSubmitAtIdenticalTimestamps: several full-width jobs all arriving at
// the same virtual instant serialize in submission order.
func TestSubmitAtIdenticalTimestamps(t *testing.T) {
	c := New(Spec{Ranks: 2, RanksPerNode: 2})
	const n = 5
	jrs := make([]*JobResult, n)
	for i := range jrs {
		jrs[i] = c.SubmitAt(5, &Job{Name: fmt.Sprintf("same%d", i), Ranks: 2,
			EstCost: 1, Main: pureCompute(1)})
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, jr := range jrs {
		if jr.Submit != 5 {
			t.Fatalf("job %d submit %v, want 5", i, jr.Submit)
		}
		want := 5 + float64(i)
		if jr.Start != want || jr.End != want+1 {
			t.Fatalf("job %d ran [%v,%v], want [%v,%v] (submission-order FIFO at equal timestamps)",
				i, jr.Start, jr.End, want, want+1)
		}
	}
}

// TestSubmitAtCompletionInstant: an arrival landing exactly on a running
// job's completion time is admitted immediately — the wakeup is not lost to
// the completion event sharing the timestamp.
func TestSubmitAtCompletionInstant(t *testing.T) {
	c := New(Spec{Ranks: 2, RanksPerNode: 2})
	first := c.Submit(&Job{Name: "first", Ranks: 2, Main: pureCompute(5)})
	second := c.SubmitAt(5, &Job{Name: "second", Ranks: 2, Main: pureCompute(1)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if first.End != 5 {
		t.Fatalf("first ended at %v, want 5", first.End)
	}
	if second.Start != 5 || second.QueueWait() != 0 {
		t.Fatalf("second start=%v wait=%v, want start 5 with zero wait", second.Start, second.QueueWait())
	}
}

// TestSubmitAtExpiredWhileQueued: an arrival whose (relative) deadline
// passes while it is blocked behind a long job is dropped with
// ErrDeadlineExpired and never placed on any rank.
func TestSubmitAtExpiredWhileQueued(t *testing.T) {
	c := New(Spec{Ranks: 2, RanksPerNode: 2})
	long := c.Submit(&Job{Name: "long", Ranks: 2, Main: pureCompute(10)})
	doomed := c.SubmitAt(2, &Job{Name: "doomed", Ranks: 2, Deadline: 1, Main: pureCompute(1)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if long.Err != nil {
		t.Fatal(long.Err)
	}
	if !errors.Is(doomed.Err, ErrDeadlineExpired) || !doomed.DeadlineMiss {
		t.Fatalf("doomed: err=%v miss=%v, want ErrDeadlineExpired", doomed.Err, doomed.DeadlineMiss)
	}
	if len(doomed.Ranks) != 0 {
		t.Fatalf("doomed was placed on ranks %v", doomed.Ranks)
	}
	if doomed.End < doomed.Submit+doomed.Job.Deadline {
		t.Fatalf("doomed dropped at %v, before its deadline %v",
			doomed.End, doomed.Submit+doomed.Job.Deadline)
	}
}

// genCollidingMix is genMix without the collision-avoidance offsets: arrival
// times are drawn on a coarse 0.5s grid and ~a third of the arrivals reuse
// an earlier submission's timestamp exactly, so simultaneous arrivals (and
// arrival/completion collisions) are the norm rather than the exception.
func genCollidingMix(rng *rand.Rand) []mixJob {
	n := 6 + rng.Intn(11)
	mix := make([]mixJob, n)
	tenants := []string{"", "t1", "t2"}
	var reusable []float64
	for i := range mix {
		width := 1 + rng.Intn(harnessRanks)
		dur := 0.25 * float64(2+rng.Intn(17))
		arrive := 0.0
		if rng.Float64() < 0.6 {
			if len(reusable) > 0 && rng.Float64() < 0.33 {
				arrive = reusable[rng.Intn(len(reusable))]
			} else {
				arrive = 0.5 * float64(1+rng.Intn(12))
				reusable = append(reusable, arrive)
			}
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

// TestArrivalCollisionProperties extends the policy property harness to
// streams with colliding timestamps. The exact-FIFO reference does not apply
// (an arrival and a completion at the same instant make head admission order
// ambiguous there), but every policy must still be deterministic, auditable,
// starvation-free, and work-conserving — and strict fifo must admit
// same-instant arrivals in submission order.
func TestArrivalCollisionProperties(t *testing.T) {
	nseeds := 120
	if testing.Short() {
		nseeds = 30
	}
	for seed := 0; seed < nseeds; seed++ {
		rng := rand.New(rand.NewSource(int64(1_000_000 + seed)))
		mix := genCollidingMix(rng)
		for _, pol := range PolicyNames() {
			label := fmt.Sprintf("colliding seed %d policy %s", seed, pol)
			a := runMix(t, pol, mix, false)
			b := runMix(t, pol, mix, false)

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

			if err := AuditResults(a.results, harnessRanks); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, jr := range a.results {
				if jr.Start < 0 || jr.End < 0 {
					t.Fatalf("%s: job %d (%q) never resolved", label, i, jr.Job.Name)
				}
				if jr.Err != nil && !errors.Is(jr.Err, ErrDeadlineExpired) {
					t.Fatalf("%s: job %d failed: %v", label, i, jr.Err)
				}
			}
			checkWorkConservation(t, label, a.results)

			if pol == "fifo" {
				for i, ri := range a.results {
					for j := i + 1; j < len(a.results); j++ {
						rj := a.results[j]
						if mix[i].arrive != mix[j].arrive {
							continue
						}
						if errors.Is(ri.Err, ErrDeadlineExpired) || errors.Is(rj.Err, ErrDeadlineExpired) {
							continue
						}
						if ri.Start > rj.Start {
							t.Fatalf("%s: same-instant arrivals admitted out of submission order: job %d at %v after job %d at %v",
								label, i, ri.Start, j, rj.Start)
						}
					}
				}
			}
		}
	}
}
