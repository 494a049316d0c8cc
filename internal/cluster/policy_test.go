package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	for _, want := range []string{"easy-backfill", "fairshare", "fifo", "priority"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("PolicyNames() = %v, missing %q", names, want)
		}
	}
	if got := New(Spec{Ranks: 2}).policy.Name(); got != "fifo" {
		t.Errorf("default policy %q, want fifo", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown Spec.Policy did not panic")
		}
	}()
	New(Spec{Ranks: 2, Policy: "nope"})
}

// TestCheckPolicy: every registered name and "" (fifo) pass; anything else
// is an error naming it and the registered set.
func TestCheckPolicy(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"", ""},
		{"fifo", ""},
		{"easy-backfill", ""},
		{"priority", ""},
		{"fairshare", ""},
		{"nope", `unknown policy "nope" (have easy-backfill|fairshare|fifo|priority)`},
		{"FIFO", `unknown policy "FIFO"`},
		{" fifo", `unknown policy " fifo"`},
	} {
		err := CheckPolicy(c.name)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("CheckPolicy(%q) = %v, want nil", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("CheckPolicy(%q) = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestBackfillFillsHoleWithoutDelayingHead: on 4 ranks, a 2-wide 10s job
// leaves a 2-rank hole in front of a blocked 4-wide head; a short narrow
// job estimated to finish before the head's reservation (t=10) must start
// immediately — and the head must still start exactly at its reservation,
// with zero slack lost.
func TestBackfillFillsHoleWithoutDelayingHead(t *testing.T) {
	ot := obs.New()
	c := New(Spec{Ranks: 4, RanksPerNode: 4, Policy: "easy-backfill", Obs: ot})
	long := c.Submit(&Job{Name: "long", Ranks: 2, EstCost: 10, Main: pureCompute(10)})
	head := c.Submit(&Job{Name: "head", Ranks: 4, EstCost: 10, Main: pureCompute(10)})
	narrow := c.Submit(&Job{Name: "narrow", Ranks: 2, EstCost: 5, Main: pureCompute(5)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if long.Start != 0 {
		t.Fatalf("long.Start = %v, want 0", long.Start)
	}
	if narrow.Start != 0 {
		t.Fatalf("narrow.Start = %v, want 0 (backfilled into the hole)", narrow.Start)
	}
	if head.Start != 10 {
		t.Fatalf("head.Start = %v, want exactly its reservation at 10", head.Start)
	}
	st := c.SchedStats()
	if st.Backfilled != 1 {
		t.Errorf("Backfilled = %d, want 1", st.Backfilled)
	}
	if len(st.Slacks) != 1 || st.Slacks[0] != 0 {
		t.Errorf("Slacks = %v, want [0] (head started exactly at its reservation)", st.Slacks)
	}
	m := ot.Metrics()
	if got, _ := m.CounterValue("cluster_jobs_backfilled"); got != 1 {
		t.Errorf("cluster_jobs_backfilled = %v, want 1", got)
	}
	h := m.FindHistogram("cluster_reservation_slack_seconds")
	if h == nil || h.Count() != 1 || h.Sum() != 0 {
		t.Errorf("cluster_reservation_slack_seconds: %+v, want one zero-slack observation", h)
	}
}

// TestBackfillRejectsDelayingCandidate: same hole, but the narrow candidate
// is estimated past the head's reservation and needs ranks the reservation
// will consume — starting it would delay the head, so it must be rejected
// and run after the head instead. The reservation-slack metric proves the
// head was not delayed.
func TestBackfillRejectsDelayingCandidate(t *testing.T) {
	ot := obs.New()
	c := New(Spec{Ranks: 4, RanksPerNode: 4, Policy: "easy-backfill", Obs: ot})
	long := c.Submit(&Job{Name: "long", Ranks: 2, EstCost: 10, Main: pureCompute(10)})
	head := c.Submit(&Job{Name: "head", Ranks: 4, EstCost: 10, Main: pureCompute(10)})
	fat := c.Submit(&Job{Name: "fat", Ranks: 2, EstCost: 20, Main: pureCompute(20)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if long.Start != 0 {
		t.Fatalf("long.Start = %v, want 0", long.Start)
	}
	if head.Start != 10 {
		t.Fatalf("head.Start = %v, want 10 (not delayed by a rejected backfill)", head.Start)
	}
	if fat.Start != 20 {
		t.Fatalf("fat.Start = %v, want 20 (after the head, FCFS)", fat.Start)
	}
	st := c.SchedStats()
	if st.Backfilled != 0 {
		t.Errorf("Backfilled = %d, want 0 (candidate would delay the head)", st.Backfilled)
	}
	// Two reserved heads — "head" behind long, then "fat" behind head — and
	// neither was delayed past its reservation.
	if len(st.Slacks) != 2 || st.Slacks[0] != 0 || st.Slacks[1] != 0 {
		t.Errorf("Slacks = %v, want [0 0]", st.Slacks)
	}
	if got, ok := ot.Metrics().CounterValue("cluster_jobs_backfilled"); ok && got != 0 {
		t.Errorf("cluster_jobs_backfilled = %v, want 0", got)
	}
	h := ot.Metrics().FindHistogram("cluster_reservation_slack_seconds")
	if h == nil || h.Count() != 2 || h.Sum() != 0 {
		t.Errorf("cluster_reservation_slack_seconds: %+v, want two zero-slack observations", h)
	}
}

// TestPriorityOrdering: on a serialized pool, a later-submitted
// high-priority job overtakes an earlier low-priority one, within a
// priority the sooner absolute deadline wins, and FCFS breaks the final
// tie.
func TestPriorityOrdering(t *testing.T) {
	c := New(Spec{Ranks: 2, RanksPerNode: 2, Policy: "priority"})
	low := c.Submit(&Job{Name: "low", Ranks: 2, Priority: 0, Main: pureCompute(1)})
	low2 := c.Submit(&Job{Name: "low2", Ranks: 2, Priority: 0, Main: pureCompute(1)})
	lax := c.Submit(&Job{Name: "lax", Ranks: 2, Priority: 1, Deadline: 100, Main: pureCompute(1)})
	urgent := c.Submit(&Job{Name: "urgent", Ranks: 2, Priority: 1, Deadline: 50, Main: pureCompute(1)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	wantStarts := []struct {
		jr   *JobResult
		want float64
	}{{urgent, 0}, {lax, 1}, {low, 2}, {low2, 3}}
	for _, w := range wantStarts {
		if w.jr.Start != w.want {
			t.Errorf("%s.Start = %v, want %v (order: urgent, lax, low, low2)",
				w.jr.Job.Name, w.jr.Start, w.want)
		}
	}
}

// TestFairshareInterleavesTenants: tenant A floods the queue; tenant B's
// later submissions must interleave with A's backlog instead of waiting
// behind all of it (as they would under fifo), because every job A runs
// raises A's charge above B's.
func TestFairshareInterleavesTenants(t *testing.T) {
	c := New(Spec{Ranks: 2, RanksPerNode: 2, Policy: "fairshare"})
	sa, sb := c.Session("alice"), c.Session("bob")
	var jrs []*JobResult
	for i := 0; i < 4; i++ {
		jrs = append(jrs, sa.Submit(&Job{Name: "a", Ranks: 2, EstCost: 1, Main: pureCompute(1)}))
	}
	for i := 0; i < 2; i++ {
		jrs = append(jrs, sb.Submit(&Job{Name: "b", Ranks: 2, EstCost: 1, Main: pureCompute(1)}))
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	byStart := append([]*JobResult(nil), jrs...)
	for i := range byStart { // insertion sort by Start (6 items)
		for j := i; j > 0 && byStart[j].Start < byStart[j-1].Start; j-- {
			byStart[j], byStart[j-1] = byStart[j-1], byStart[j]
		}
	}
	names := make([]string, len(byStart))
	for i, jr := range byStart {
		names[i] = jr.Job.Name
	}
	// a, then bob (deficit 0 vs 2), then FCFS tie a, b, a, a.
	if got := strings.Join(names, ""); got != "abab"+"aa" {
		t.Errorf("order %q, want abab-aa", got)
	}
}

// TestNonFiniteOrderingInputsRejected: every value an ordered index compares
// must be finite, so NaN and ±Inf are refused where they enter — Submit /
// SubmitAt for a job's estimate, deadline and arrival time — with a panic
// naming the job, the convention prepare already follows.
func TestNonFiniteOrderingInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	job := func(est, deadline float64) *Job {
		return &Job{Name: "bad-job", Ranks: 1, EstCost: est, Deadline: deadline, Main: pureCompute(1)}
	}
	cases := []struct {
		name string
		do   func(c *Cluster)
		want string // substring of the panic message
	}{
		{"EstCost NaN", func(c *Cluster) { c.Submit(job(nan, 0)) }, `job "bad-job" has EstCost NaN`},
		{"EstCost +Inf", func(c *Cluster) { c.Submit(job(inf, 0)) }, `job "bad-job" has EstCost +Inf`},
		{"EstCost -Inf", func(c *Cluster) { c.Submit(job(-inf, 0)) }, `job "bad-job" has EstCost -Inf`},
		{"Deadline NaN", func(c *Cluster) { c.Submit(job(1, nan)) }, `job "bad-job" has Deadline NaN`},
		{"Deadline +Inf", func(c *Cluster) { c.SubmitAt(2, job(1, inf)) }, `job "bad-job" has Deadline +Inf`},
		{"SubmitAt NaN", func(c *Cluster) { c.SubmitAt(nan, job(1, 0)) }, `job "bad-job" has submit time NaN`},
		{"session Submit EstCost NaN", func(c *Cluster) { c.Session("s").Submit(job(nan, 0)) }, `job "bad-job" has EstCost NaN`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one containing %q", msg, tc.want)
				}
			}()
			tc.do(New(Spec{Ranks: 2, RanksPerNode: 2, Policy: "fairshare"}))
		})
	}
	// Finite values, including the "none" zeros, still pass.
	c := New(Spec{Ranks: 2, RanksPerNode: 2, Policy: "fairshare"})
	c.Session("s").Submit(job(0, 0))
	c.SubmitAt(1, job(2.5, 10))
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
