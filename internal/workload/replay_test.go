package workload

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/obs"
)

// runDigest reduces one run to a canonical per-job transcript: scheduling
// outcome, timing, and analysis value for every submission. Two runs of the
// same stream must produce equal digests — it is the cheap, structural
// stand-in for full event-log comparison.
func runDigest(subs []Submitted) []string {
	out := make([]string, len(subs))
	for i, s := range subs {
		jr := s.Res.JobResult
		val := "-"
		if s.Res.Valid() {
			val = strconv.FormatFloat(s.Res.Res.Value, 'g', -1, 64)
		}
		out[i] = fmt.Sprintf("%s t=%g start=%g end=%g err=%v memo=%t coal=%t val=%s",
			jr.Job.Name, jr.Submit, jr.Start, jr.End, jr.Err != nil,
			jr.MemoHit, jr.CoalescedWith != nil, val)
	}
	return out
}

// runWithEvents replays tr on a fresh machine with a JSONL event sink (and
// decision tracing) attached, returning the submission results and the
// captured event-log bytes.
func runWithEvents(t *testing.T, tr *Trace) ([]Submitted, []byte) {
	t.Helper()
	var buf bytes.Buffer
	ot := obs.New()
	sink := obs.NewJSONLSink(&buf)
	ot.AddSink(sink)
	ot.EnableDecisions()
	_, subs, err := Run(tr, ot)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return subs, buf.Bytes()
}

func diffDigests(t *testing.T, what string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d jobs", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: job %d diverged:\n  a: %s\n  b: %s", what, i, a[i], b[i])
		}
	}
}

// TestRecordReplayBitIdentical is the tentpole contract: generating a
// stream, serializing it, reading it back, and replaying it drives the
// scheduler to the byte-identical event log (spans + decisions) and the
// identical per-job outcomes as the original run.
func TestRecordReplayBitIdentical(t *testing.T) {
	spec := smallSpec(23)
	spec.MaxJobs = 150
	gen := mustGenerate(t, spec)

	subs1, events1 := runWithEvents(t, gen)

	var file bytes.Buffer
	if err := Write(&file, gen); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	subs2, events2 := runWithEvents(t, loaded)

	diffDigests(t, "record vs replay", runDigest(subs1), runDigest(subs2))
	if !bytes.Equal(events1, events2) {
		t.Fatalf("event logs differ: %d vs %d bytes", len(events1), len(events2))
	}
	if len(events1) == 0 {
		t.Fatal("no events captured")
	}

	// Some scheduling actually happened in this stream.
	var hits, drops int
	for _, s := range subs1 {
		if s.Res.MemoHit {
			hits++
		}
		if s.Res.Err == cluster.ErrDeadlineExpired {
			drops++
		}
	}
	if hits == 0 {
		t.Fatal("zipf-skewed stream produced no memo hits")
	}
}

// TestReplayDeterministicAcrossPolicies is the arrival-stream property
// harness: under every registered scheduling policy and several seeds, a
// generated stream replays bit-identically and yields a valid placement.
func TestReplayDeterministicAcrossPolicies(t *testing.T) {
	for _, policy := range cluster.PolicyNames() {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", policy, seed), func(t *testing.T) {
				spec := smallSpec(seed)
				spec.MaxJobs = 80
				spec.Machine.Policy = policy
				tr := mustGenerate(t, spec)

				run := func() ([]Submitted, *cluster.Cluster) {
					c, subs, err := Run(tr, nil)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					return subs, c
				}
				subs1, c1 := run()
				subs2, _ := run()
				diffDigests(t, "run1 vs run2", runDigest(subs1), runDigest(subs2))

				results := make([]*cluster.JobResult, len(subs1))
				for i, s := range subs1 {
					results[i] = s.Res.JobResult
				}
				if err := cluster.AuditResults(results, tr.Machine.Ranks); err != nil {
					t.Fatalf("audit: %v", err)
				}
				_ = c1
			})
		}
	}
}

// TestRunReportsFailedJob: a job that fails during replay is an error, not a
// job served, and its queue wait stays out of the class's quantiles. The
// trace is built in Go, so Read's checks do not stop the window that
// overruns its dataset.
func TestRunReportsFailedJob(t *testing.T) {
	job := func(name string, count0 int64) Submission {
		return Submission{T: 0.001, Tenant: "t/c0", Class: "batch", Name: name, Dataset: "d",
			Op: "sum", Start: []int64{0, 0, 0}, Count: []int64{count0, 4, 4}, Ranks: 2,
			EstCost: 1, SecPerElem: 1e-3}
	}
	tr := &Trace{
		Machine:  Machine{Ranks: 2, RanksPerNode: 2},
		Datasets: []DatasetSpec{{Name: "d", Dims: []int64{8, 4, 4}, StripeCount: 2, StripeSize: 1 << 20}},
		// The second job queues behind the first, then fails.
		Jobs: []Submission{job("fits", 8), job("overruns", 100)},
	}
	if _, _, err := Run(tr, nil); err == nil || !strings.Contains(err.Error(), "job 1 (overruns) failed") {
		t.Fatalf("Run error %v, want one naming job 1", err)
	}
	c, err := Provision(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := SubmitAll(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if w := subs[1].Res.QueueWait(); subs[1].Res.Err == nil || w <= 0 {
		t.Fatalf("the overrunning job queued %v and failed with %v; the test needs both", w, subs[1].Res.Err)
	}
	stats := Summarize(subs)
	if len(stats) != 1 || stats[0].Jobs != 2 || stats[0].WaitP99 != subs[0].Res.QueueWait() {
		t.Fatalf("Summarize = %+v: want 2 jobs and the served job's wait %v as p99", stats, subs[0].Res.QueueWait())
	}
}

// TestSummarize rolls a run up per class and sanity-checks the aggregates.
func TestSummarize(t *testing.T) {
	spec := smallSpec(29)
	spec.MaxJobs = 200
	tr := mustGenerate(t, spec)
	_, subs, err := Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := Summarize(subs)
	if len(stats) != 3 {
		t.Fatalf("got %d classes, want 3", len(stats))
	}
	total := 0
	for _, cs := range stats {
		total += cs.Jobs
		if cs.WaitP99 < cs.WaitP50 {
			t.Fatalf("class %s: p99 %v < p50 %v", cs.Class, cs.WaitP99, cs.WaitP50)
		}
		if cs.Dropped+cs.MemoHits > cs.Jobs {
			t.Fatalf("class %s: inconsistent counts %+v", cs.Class, cs)
		}
	}
	if total != len(subs) {
		t.Fatalf("classes cover %d of %d jobs", total, len(subs))
	}
	if prev := ""; true {
		for _, cs := range stats {
			if cs.Class < prev {
				t.Fatal("classes not sorted")
			}
			prev = cs.Class
		}
	}

	// Nearest rank: the p99 of two waits is the larger, the p50 the smaller.
	two := []Submitted{}
	for _, wait := range []float64{3, 1} {
		jr := &cluster.JobResult{Submit: 2, Start: 2 + wait, End: 9}
		two = append(two, Submitted{Sub: &Submission{Class: "pair"}, Res: &cluster.CCResult{JobResult: jr}})
	}
	if cs := Summarize(two)[0]; cs.WaitP50 != 1 || cs.WaitP99 != 3 {
		t.Errorf("waits 3 and 1: p50 %v, p99 %v, want 1 and 3", cs.WaitP50, cs.WaitP99)
	}
}

// TestBatchAtZeroIsSubmitCC: SubmitAll queues a job at T = 0 with the batch
// the run starts from, exactly as Session.SubmitCC queues it, and a job at
// T > 0 as an arrival at T (Session.SubmitCCAt). The same jobs submitted by
// hand through those two calls give every job the same Start and End bits
// and the same event log, decisions included.
func TestBatchAtZeroIsSubmitCC(t *testing.T) {
	type job struct {
		t            float64
		tenant, name string
		op           cc.Op
		code         string
		ranks        int
		win          int64
	}
	// Two tenants whose T = 0 jobs cannot all fit at once, then a late one.
	jobs := []job{
		{0, "a", "a-sum", cc.Sum{}, "sum", 3, 0},
		{0, "b", "b-minloc", cc.MinLoc{}, "minloc", 2, 4},
		{0, "a", "a-hist", cc.Histogram{Lo: -40, Hi: 60, Bins: 4}, "hist:-40:60:4", 2, 8},
		{0, "b", "b-sum", cc.Sum{}, "sum", 4, 12},
		{0.004, "a", "a-late", cc.Sum{}, "sum", 2, 4},
	}
	tr := &Trace{
		Machine:  Machine{Ranks: 4, RanksPerNode: 2},
		Datasets: []DatasetSpec{{Name: "d", Dims: []int64{16, 8, 8}, StripeCount: 2, StripeSize: 1 << 12}},
	}
	for _, j := range jobs {
		tr.Jobs = append(tr.Jobs, Submission{T: j.t, Tenant: j.tenant, Name: j.name, Dataset: "d",
			Op: j.code, Start: []int64{j.win, 0, 0}, Count: []int64{4, 8, 8}, Ranks: j.ranks,
			SecPerElem: 1e-4})
	}
	subs, got := runWithEvents(t, tr)

	var buf bytes.Buffer
	ot := obs.New()
	sink := obs.NewJSONLSink(&buf)
	ot.AddSink(sink)
	ot.EnableDecisions()
	c, err := Provision(tr, ot)
	if err != nil {
		t.Fatal(err)
	}
	sessions := map[string]*cluster.Session{"a": c.Session("a"), "b": c.Session("b")}
	crs := make([]*cluster.CCResult, len(jobs))
	for i, j := range jobs {
		cj := cluster.CCJob{Name: j.name, Ranks: j.ranks, Dataset: "d",
			Slab: layout.Slab{Start: []int64{j.win, 0, 0}, Count: []int64{4, 8, 8}},
			Op:   j.op, SecPerElem: 1e-4}
		if j.t == 0 {
			crs[i] = sessions[j.tenant].SubmitCC(cj)
		} else {
			crs[i] = sessions[j.tenant].SubmitCCAt(j.t, cj)
		}
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	waited := false
	for i, cr := range crs {
		r := subs[i].Res
		if !cr.Valid() || !r.Valid() {
			t.Fatalf("%s: by hand %v, through the trace %v", jobs[i].name, cr.Err, r.Err)
		}
		if r.Submit != jobs[i].t || math.Float64bits(r.Start) != math.Float64bits(cr.Start) ||
			math.Float64bits(r.End) != math.Float64bits(cr.End) {
			t.Errorf("%s: through the trace submit %v start %v end %v, by hand submit %v start %v end %v",
				jobs[i].name, r.Submit, r.Start, r.End, cr.Submit, cr.Start, cr.End)
		}
		waited = waited || (jobs[i].t == 0 && r.QueueWait() > 0)
	}
	if !waited {
		t.Fatal("no T = 0 job queued behind another; the test needs contention")
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("event logs differ: %d bytes through the trace, %d by hand", len(got), buf.Len())
	}
}
