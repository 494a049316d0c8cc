package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/climate"
	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/obs/decision/decisiontest"
)

// TestQueueViewAccessors pins the policy-facing Queue view against
// hand-built cluster state: pending-job fields, the free-rank set before and
// after a placement, the concurrency cap, and the fairshare counters.
func TestQueueViewAccessors(t *testing.T) {
	c := New(Spec{Ranks: 8, RanksPerNode: 4, MaxConcurrent: 1})
	sa, sb := c.Session("alice"), c.Session("bob")
	sa.Submit(&Job{Name: "a0", Ranks: 4, Deadline: 10, Priority: 2, EstCost: 3,
		Main: computeJob(1)})
	sb.Submit(&Job{Name: "b0", Ranks: 2, Main: computeJob(1)})
	q := &Queue{c: c, pool: newRankPool(8)}

	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	a0, b0 := q.Head(), q.Next(q.Head())
	if a0 != c.results[0] || b0 != c.results[1] || q.Next(b0) != nil {
		t.Fatalf("Head/Next walk = %v, %v; want the two submissions in arrival order", a0, b0)
	}
	if !q.Pending(a0) || !q.Pending(b0) {
		t.Fatalf("submitted jobs not Pending")
	}
	var arrived []*JobResult
	q.Arrivals(func(h *JobResult) { arrived = append(arrived, h) })
	q.Arrivals(func(h *JobResult) { arrived = append(arrived, h) }) // reports each once
	if !reflect.DeepEqual(arrived, []*JobResult{a0, b0}) {
		t.Fatalf("Arrivals = %v, want each pending job once in arrival order", arrived)
	}
	if a0.Seq() != 0 || a0.Tenant() != "alice" || a0.AbsDeadline() != 10 ||
		a0.Job.Ranks != 4 || a0.Job.Priority != 2 || a0.Job.EstCost != 3 {
		t.Fatalf("handle a0 = seq %d tenant %q deadline %v job %+v",
			a0.Seq(), a0.Tenant(), a0.AbsDeadline(), a0.Job)
	}
	if b0.Seq() != 1 || b0.Tenant() != "bob" || !math.IsInf(b0.AbsDeadline(), 1) {
		t.Fatalf("handle b0 = seq %d tenant %q deadline %v",
			b0.Seq(), b0.Tenant(), b0.AbsDeadline())
	}
	if got := q.pool.ranks(nil); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("free ranks = %v, want 0-7", got)
	}
	if q.Free() != 8 {
		t.Fatalf("Free = %d, want 8", q.Free())
	}
	if !q.Fits(a0) || !q.Fits(b0) {
		t.Fatalf("both jobs should fit an empty 8-rank pool")
	}

	// Claim the four lowest ranks by hand: the view must track the pool.
	q.pool.takeLowest(4, nil)
	if got := q.pool.ranks(nil); !reflect.DeepEqual(got, []int{4, 5, 6, 7}) || q.Free() != 4 {
		t.Fatalf("free ranks after take = %v (Free %d), want 4-7", got, q.Free())
	}
	if !q.Fits(a0) || !q.Fits(b0) {
		t.Fatalf("both jobs still fit 4 free ranks with the cap open")
	}
	// Fill the single concurrency slot: the cap must close and nothing fits.
	q.running = append(q.running, c.results[0])
	if q.CapFree() {
		t.Fatalf("CapFree with MaxConcurrent=1 and one running job")
	}
	if q.Fits(a0) || q.Fits(b0) {
		t.Fatalf("jobs fit past a closed concurrency cap")
	}

	c.tenantUse["alice"] = 12
	if got := q.Usage("alice"); got != 12 {
		t.Fatalf("Usage(alice) = %v, want 12", got)
	}
	if got := q.Usage("bob"); got != 0 {
		t.Fatalf("Usage(bob) = %v, want 0", got)
	}
}

// decisionWorkload is the contended mix the decision tests share: a long
// wide job, a blocked head, two safe backfills, and a job whose deadline
// expires while queued. Under easy-backfill it produces two backfill admits,
// shadow-reservation skips, and one deadline drop.
func decisionWorkload(ot *obs.Tracer) (*Cluster, []*JobResult) {
	c := New(Spec{Ranks: 8, RanksPerNode: 4, Policy: "easy-backfill", Obs: ot})
	var jrs []*JobResult
	jrs = append(jrs,
		c.Submit(&Job{Name: "big", Ranks: 6, EstCost: 10, Main: computeJob(10)}),
		c.Submit(&Job{Name: "head", Ranks: 4, EstCost: 3, Main: computeJob(1)}),
		c.Submit(&Job{Name: "small1", Ranks: 2, EstCost: 1, Main: computeJob(1)}),
		c.Submit(&Job{Name: "small2", Ranks: 2, EstCost: 1, Main: computeJob(1)}),
		c.Submit(&Job{Name: "doomed", Ranks: 8, Deadline: 2, EstCost: 1, Main: computeJob(1)}),
	)
	return c, jrs
}

// TestDecisionLogTwoRunsByteIdentical is the determinism gate for the
// decision stream: two identical runs must produce byte-identical mixed
// event logs (events + interleaved decision lines) and byte-identical
// decision-only logs.
func TestDecisionLogTwoRunsByteIdentical(t *testing.T) {
	var inMemory []decision.Record
	run := func() ([]byte, []byte) {
		var buf bytes.Buffer
		ot := obs.New()
		sink := obs.NewJSONLSink(&buf)
		ot.AddSink(sink)
		ot.EnableDecisions()
		c, _ := decisionWorkload(ot)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		inMemory = ot.Decisions()
		return buf.Bytes(), decision.AppendLog(nil, ot.Decisions())
	}
	log1, dec1 := run()
	log2, dec2 := run()
	if !bytes.Equal(log1, log2) {
		t.Fatalf("mixed event logs differ across identical runs")
	}
	if !bytes.Equal(dec1, dec2) {
		t.Fatalf("decision logs differ across identical runs")
	}
	if len(dec1) == 0 {
		t.Fatalf("no decision records emitted")
	}
	// The decision lines in the mixed log are exactly the tracer's records.
	recs, err := decision.ReadLog(bytes.NewReader(log1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decision.AppendLog(nil, recs), dec1) {
		t.Fatalf("decision lines in the event log differ from the tracer's records")
	}
	// ... as values too: what the scheduler holds in memory (a skip's wait,
	// which its line does not carry, included) is what a reader recovers.
	if !reflect.DeepEqual(recs, inMemory) {
		for i := range recs {
			if i >= len(inMemory) || recs[i] != inMemory[i] {
				t.Fatalf("record %d read back as %+v, the tracer holds %+v", i, recs[i], inMemory[i:])
			}
		}
		t.Fatalf("read %d records, the tracer holds %d", len(recs), len(inMemory))
	}
}

// attrVal extracts a string attribute from an event-log event.
func attrVal(ev obs.Event, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestDecisionRecordsMatchEventInstants is the cross-check the emission
// refactor exists for: every scheduler event-log instant (deadline-drop,
// backfill, memo-hit, memo-wait, coalesce-attach) must have a decision
// record derived from the same values — same job, same virtual time, the
// matching outcome — and vice versa, so the two streams can never disagree.
func TestDecisionRecordsMatchEventInstants(t *testing.T) {
	// Outcome (+ admit reason) each instant name must pair with.
	pairing := map[string]struct {
		outcome decision.Outcome
		reason  decision.Reason
	}{
		"deadline-drop":   {decision.Drop, decision.DeadlineDrop},
		"backfill":        {decision.Admit, decision.Backfill},
		"memo-hit":        {decision.MemoHit, ""},
		"memo-wait":       {decision.MemoWait, decision.WaitingOnTwin},
		"coalesce-attach": {decision.Coalesce, decision.WaitingOnTwin},
	}

	check := func(name string, build func(t *testing.T, ot *obs.Tracer) *Cluster, wantInstants []string) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			ot := obs.New()
			sink := obs.NewJSONLSink(&buf)
			ot.AddSink(sink)
			ot.EnableDecisions()
			c := build(t, ot)
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			recs := ot.Decisions()

			seen := map[string]int{}
			for _, ev := range evs {
				p, ok := pairing[ev.Name]
				if !ok {
					continue
				}
				seen[ev.Name]++
				found := false
				for _, rec := range recs {
					if rec.Job == attrVal(ev, "job") && rec.T == ev.T &&
						rec.Outcome == p.outcome && rec.Reason == p.reason {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("instant %s(job=%s, t=%v) has no matching decision record",
						ev.Name, attrVal(ev, "job"), ev.T)
				}
			}
			for _, want := range wantInstants {
				if seen[want] == 0 {
					t.Errorf("workload emitted no %s instant (cross-check vacuous)", want)
				}
			}

			// Reverse direction: every terminal decision record that pairs
			// with an instant must have one at the same job and time.
			for _, rec := range recs {
				var iname string
				for name, p := range pairing {
					if rec.Outcome == p.outcome && rec.Reason == p.reason {
						iname = name
						break
					}
				}
				if iname == "" {
					continue
				}
				found := false
				for _, ev := range evs {
					if ev.Name == iname && attrVal(ev, "job") == rec.Job && ev.T == rec.T {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("decision %s/%s (job=%s, t=%v) has no matching %s instant",
						rec.Outcome, rec.Reason, rec.Job, rec.T, iname)
				}
			}
		})
	}

	check("drop-and-backfill", func(t *testing.T, ot *obs.Tracer) *Cluster {
		c, _ := decisionWorkload(ot)
		return c
	}, []string{"deadline-drop", "backfill"})

	check("memo", func(t *testing.T, ot *obs.Tracer) *Cluster {
		c := New(Spec{Ranks: 4, RanksPerNode: 2, Memo: true, Obs: ot})
		ds, _, err := climate.NewDataset3D(c.FS(), []int64{16, 32, 32}, 8, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		c.RegisterDataset("climate", ds)
		memoWorkload(c)
		return c
	}, []string{"memo-hit", "memo-wait", "coalesce-attach"})
}

// TestHeldSkipsExpandOnHarnessMixes: over the property harness's 200 mixes
// and every registered policy — fifo's head-of-line skips, EASY's
// shadow-reservation blames and backfills, the reordering policies'
// head-of-line tags, deadline drops — the decision stream the run wrote
// (a skip only when its cause changes) expands to a self-consistent
// skip-per-pending-job-per-round stream, every round's pending count is the
// number of skips in force, and decision.Attribute folds the two forms to
// the same bits and agrees with the v1 fold on the expansion.
func TestHeldSkipsExpandOnHarnessMixes(t *testing.T) {
	nseeds := 200
	if testing.Short() {
		nseeds = 50
	}
	written, expanded, shadows := 0, 0, 0
	for seed := 0; seed < nseeds; seed++ {
		mix := genMix(rand.New(rand.NewSource(int64(seed))))
		for _, pol := range PolicyNames() {
			out := runMixWith(t, mix, mixRun{policy: pol, traced: true, explain: true})
			recs, err := decision.ReadLog(bytes.NewReader(out.events))
			if err != nil {
				t.Fatalf("seed %d policy %s: %v", seed, pol, err)
			}
			v1, err := decisiontest.CheckFoldsAgree(recs)
			if err != nil {
				t.Fatalf("seed %d policy %s: %v", seed, pol, err)
			}
			written += len(recs)
			expanded += len(v1)
			for _, r := range recs {
				if r.Reason == decision.ShadowReservation {
					shadows++
				}
			}
		}
	}
	// Vacuity: skips were held (the expansion is larger than what was
	// written, Round records included) and the shadow-time half of a cause
	// was exercised.
	if expanded <= written || shadows == 0 {
		t.Fatalf("%d records written expand to %d, %d shadow-reservation skips: nothing held or nothing blamed",
			written, expanded, shadows)
	}
	t.Logf("%d records written expand to %d (%d shadow-reservation skips)", written, expanded, shadows)
}
