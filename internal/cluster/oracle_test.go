package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/mpi"
)

// This file keeps the pre-index "priority" and "fairshare" policies — one
// linear scan of the whole pending queue per consumed job — as reference
// oracles, and holds the indexed production policies to them twice over:
// differentially (byte-identical event and decision logs, here over the
// harness mixes and in oracle_stream_test.go over deep generated streams)
// and by a deterministic scaling gate on the work a policy does per job.
// The oracles register under no name; InstallOracle swaps one in for the
// production policy of the same Name() on a fresh cluster, so every record
// that carries the policy name is unchanged.

// oracleBest scans every pending job and returns the one before() prefers,
// counting each examined entry against the cluster's admission-work counter
// (the unit the production heaps count comparisons in).
func oracleBest(q *Queue, before func(a, b *JobResult) bool) *JobResult {
	best := q.Head()
	if best == nil {
		return nil
	}
	for h := q.Next(best); h != nil; h = q.Next(h) {
		q.c.admitWork++
		if before(h, best) {
			best = h
		}
	}
	return best
}

// oracleRound is the reordering policies' round as it was written before
// admitBest: pick, drop if expired, memo, block if it does not fit, admit.
func oracleRound(q *Queue, before func(a, b *JobResult) bool) {
	for q.Len() > 0 {
		best := oracleBest(q, before)
		if q.Expired(best) {
			q.Drop(best)
			continue
		}
		if q.TryMemo(best) {
			continue
		}
		if !q.Fits(best) {
			blameHeadOfLine(q, best)
			return
		}
		q.Admit(best)
	}
}

type oraclePriority struct{}

func (oraclePriority) Name() string { return "priority" }

func (oraclePriority) Admit(q *Queue) {
	oracleRound(q, func(a, b *JobResult) bool {
		if a.Job.Priority != b.Job.Priority {
			return a.Job.Priority > b.Job.Priority
		}
		da, db := math.Inf(1), math.Inf(1)
		if a.Job.Deadline > 0 {
			da = a.Submit + a.Job.Deadline
		}
		if b.Job.Deadline > 0 {
			db = b.Submit + b.Job.Deadline
		}
		if da != db {
			return da < db
		}
		return a.pid < b.pid
	})
}

type oracleFairshare struct{}

func (oracleFairshare) Name() string { return "fairshare" }

func (oracleFairshare) Admit(q *Queue) {
	oracleRound(q, func(a, b *JobResult) bool {
		ka, kb := q.Usage(a.Tenant()), q.Usage(b.Tenant())
		return ka < kb || (ka == kb && a.pid < b.pid)
	})
}

// InstallOracle replaces c's indexed priority or fairshare policy with its
// linear-scan oracle. Call on a fresh cluster, before Run.
func InstallOracle(c *Cluster) {
	switch c.policy.Name() {
	case "priority":
		c.policy = oraclePriority{}
	case "fairshare":
		c.policy = oracleFairshare{}
	default:
		panic("cluster: no oracle for policy " + c.policy.Name())
	}
}

// TestIndexedPoliciesMatchOracleOnHarnessMixes: over the property harness's
// 200 mixes, the indexed policies and their oracles must produce
// byte-identical mixed logs — every event and, with decision tracing on,
// every decision record (admit/drop/skip with reason, blocker and free-rank
// snapshot), in order.
func TestIndexedPoliciesMatchOracleOnHarnessMixes(t *testing.T) {
	nseeds := 200
	if testing.Short() {
		nseeds = 50
	}
	for seed := 0; seed < nseeds; seed++ {
		mix := genMix(rand.New(rand.NewSource(int64(seed))))
		run := mixRun{traced: true, explain: true}
		for _, pol := range []string{"priority", "fairshare"} {
			run.policy, run.setup = pol, nil
			indexed := runMixWith(t, mix, run)
			run.setup = InstallOracle
			oracle := runMixWith(t, mix, run)
			if !bytes.Equal(indexed.events, oracle.events) {
				t.Fatalf("seed %d policy %s: indexed and oracle logs differ:\n%s",
					seed, pol, FirstLogDiff(indexed.events, oracle.events))
			}
			if len(indexed.events) == 0 || !bytes.Contains(indexed.events, []byte(`"decision"`)) {
				t.Fatalf("seed %d policy %s: no decision lines in the log (comparison vacuous)", seed, pol)
			}
		}
	}
}

// FirstLogDiff renders the first line at which two JSONL logs part
// (exported to the external stream tests).
func FirstLogDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  indexed: %s\n  oracle:  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("one log is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}

// admitWorkAt runs the shape of the bench's cluster.admit_* probes — depth
// one-rank jobs at t=0 over 16 tenants on a 32-rank machine — and returns
// the admission work the policy did.
func admitWorkAt(t *testing.T, policy string, depth int, oracle bool) int {
	t.Helper()
	c := New(Spec{Ranks: 32, RanksPerNode: 8, Policy: policy})
	if oracle {
		InstallOracle(c)
	}
	sessions := make([]*Session, 16)
	for i := range sessions {
		sessions[i] = c.Session("t" + strconv.Itoa(i))
	}
	for i := 0; i < depth; i++ {
		cost := 1e-3 * float64(1+i%5)
		sessions[i%len(sessions)].Submit(&Job{
			Name: "j" + strconv.Itoa(i), Ranks: 1, Priority: i % 7, EstCost: cost,
			Main: func(ctx *JobContext, r *mpi.Rank) error {
				r.Compute(cost)
				return nil
			},
		})
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c.admitWork
}

// TestAdmissionWorkScalesNLogN is the scaling gate that does not read the
// wall clock: the indexed policies may do at most c·N·log2(N) units of
// admission work (heap comparisons) to consume an N-deep queue, at N = 512
// and N = 4096; the linear-scan oracles do ~N²/2 entry examinations and
// must fail the same bound, which is what shows the gate can catch a
// return of quadratic admission.
func TestAdmissionWorkScalesNLogN(t *testing.T) {
	const c = 4
	for _, pol := range []string{"priority", "fairshare"} {
		for _, n := range []int{512, 4096} {
			bound := int(c * float64(n) * math.Log2(float64(n)))
			if got := admitWorkAt(t, pol, n, false); got > bound {
				t.Errorf("%s at N=%d: %d units of admission work, bound %d·N·log2N = %d",
					pol, n, got, c, bound)
			} else {
				t.Logf("%s at N=%d: %d units (bound %d)", pol, n, got, bound)
			}
			if testing.Short() && n > 512 {
				continue // the oracle's N² at 4096 is most of this test's time
			}
			if got := admitWorkAt(t, pol, n, true); got <= bound {
				t.Errorf("%s oracle at N=%d: %d units passes the bound %d — the gate cannot tell a scan from an index",
					pol, n, got, bound)
			}
		}
	}
}

// MemoSweepTally is what the memo layer's sweep oracle saw, summed over
// donor admissions: the pending depth it walked, and how much of it was on
// the donor's (dataset, var) — all the index walk may visit.
type MemoSweepTally struct{ Depth, SameVar int }

// InstallMemoSweep replaces c's (dataset, var) index walk at donor admission
// with the walk it replaced: memoAttach on every pending job in arrival
// order. Call on a fresh memo cluster, before Run.
func InstallMemoSweep(c *Cluster) *MemoSweepTally {
	tally := &MemoSweepTally{}
	c.memo.sweep = func(c *Cluster, donor *JobResult, now float64) {
		d := donor.cc.job
		for p := c.pending.first(); p != nil; {
			next := c.pending.next(p)
			tally.Depth++
			if p.cc != nil && p.cc.job.Dataset == d.Dataset && p.cc.job.VarID == d.VarID {
				tally.SameVar++
			}
			c.memo.attachWork++
			if c.memoAttach(donor, p, now) {
				c.pending.remove(p)
			}
			p = next
		}
	}
	return tally
}

// MemoAttachWork returns how many memoAttach calls c's donor walks made.
func MemoAttachWork(c *Cluster) int { return c.memo.attachWork }

// TestMemoIndexMatchesSweepOnHarnessMixes: over the property harness's 200
// mixes, each job carrying the CC metadata of a shape drawn from a small
// pool — so twins, cached results and overlapping windows recur across three
// datasets — the memo layer's index walk and the sweep oracle produce
// byte-identical mixed event and decision logs under every policy.
func TestMemoIndexMatchesSweepOnHarnessMixes(t *testing.T) {
	nseeds := 200
	if testing.Short() {
		nseeds = 50
	}
	var shared MemoStats
	for seed := 0; seed < nseeds; seed++ {
		mix := genMix(rand.New(rand.NewSource(int64(seed))))
		shapes := genCCShapes(rand.New(rand.NewSource(int64(seed)+1_000_000)), mix)
		for _, pol := range PolicyNames() {
			run := mixRun{policy: pol, traced: true, explain: true, cc: shapes}
			indexed := runMixWith(t, mix, run)
			run.setup = func(c *Cluster) { InstallMemoSweep(c) }
			swept := runMixWith(t, mix, run)
			if !bytes.Equal(indexed.events, swept.events) {
				t.Fatalf("seed %d policy %s: index and sweep logs differ:\n%s",
					seed, pol, FirstLogDiff(indexed.events, swept.events))
			}
			st := indexed.memo
			shared.Hits += st.Hits
			shared.Waiters += st.Waiters
			shared.Coalesced += st.Coalesced
		}
	}
	if shared.Hits == 0 || shared.Waiters == 0 || shared.Coalesced == 0 {
		t.Fatalf("corpus shared too little to compare walks: %+v", shared)
	}
	t.Logf("shared over the corpus: %+v", shared)
}
