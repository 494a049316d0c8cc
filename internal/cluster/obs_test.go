package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/climate"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// TestJobResultSentinels pins the timing-accessor contract: -1 for jobs that
// never ran, real queue time and zero duration for deadline-dropped jobs.
func TestJobResultSentinels(t *testing.T) {
	never := &JobResult{Submit: 2, Start: -1, End: -1}
	if got := never.QueueWait(); got != -1 {
		t.Errorf("never-started QueueWait = %v, want -1", got)
	}
	if got := never.Duration(); got != -1 {
		t.Errorf("never-started Duration = %v, want -1", got)
	}
	if got := never.Turnaround(); got != -1 {
		t.Errorf("never-started Turnaround = %v, want -1", got)
	}

	// Deadline-dropped path, through the real scheduler: queued behind a 2s
	// job with a 1s deadline, so it expires before admission.
	c := New(Spec{Ranks: 2, RanksPerNode: 2, MaxConcurrent: 1})
	c.Submit(&Job{Name: "long", Main: computeJob(2)})
	dropped := c.Submit(&Job{Name: "dropped", Deadline: 1, Main: computeJob(1)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dropped.Err, ErrDeadlineExpired) {
		t.Fatalf("dropped.Err = %v", dropped.Err)
	}
	if got := dropped.Duration(); got != 0 {
		t.Errorf("dropped Duration = %v, want 0", got)
	}
	if got := dropped.QueueWait(); got <= 0 {
		t.Errorf("dropped QueueWait = %v, want > 0 (time queued until drop)", got)
	}
	if got := dropped.Turnaround(); got != dropped.QueueWait() {
		t.Errorf("dropped Turnaround = %v, want == QueueWait %v", got, dropped.QueueWait())
	}
}

// obsCluster builds a traced cluster with a registered climate dataset.
func obsCluster(t *testing.T, ranks, maxConc int) (*Cluster, *obs.Tracer) {
	t.Helper()
	ot := obs.New()
	c := New(Spec{Ranks: ranks, RanksPerNode: 2, MaxConcurrent: maxConc, Obs: ot})
	ds, _, err := climate.NewDataset3D(c.FS(), []int64{16, 32, 32}, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterDataset("climate", ds)
	return c, ot
}

// TestClusterTraceEmission runs two CC jobs under a span tracer and checks
// the recorded hierarchy: scheduler queued/run spans on pid 0, job-side
// cc/adio/pfs/mpi spans routed to each job's pid, a valid Chrome trace
// export, and the registry populated with scheduler and I/O metrics.
func TestClusterTraceEmission(t *testing.T) {
	c, ot := obsCluster(t, 4, 0)
	a := c.SubmitCC(ccSumJob("sum0", 2, 0, 8))
	b := c.SubmitCC(ccSumJob("sum1", 2, 8, 8))
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.TracePID() != 1 || b.TracePID() != 2 {
		t.Fatalf("trace pids %d/%d, want 1/2", a.TracePID(), b.TracePID())
	}

	count := map[string]int{}
	pidOf := map[string]map[int]bool{}
	ot.EachSpan(func(sv obs.SpanView) {
		count[sv.Name]++
		if pidOf[sv.Name] == nil {
			pidOf[sv.Name] = map[int]bool{}
		}
		pidOf[sv.Name][sv.PID] = true
	})
	for _, name := range []string{"queued", "run", "cc.get", "cc.map",
		"cc.reduce", "adio.iter", "adio.read", "pfs.read", "mpi.send",
		"mpi.recv", "mpi.bcast"} {
		if count[name] == 0 {
			t.Errorf("no %q spans recorded", name)
		}
	}
	if !pidOf["run"][0] || len(pidOf["run"]) != 1 {
		t.Errorf("run spans on pids %v, want only pid 0", pidOf["run"])
	}
	if !pidOf["cc.get"][1] || !pidOf["cc.get"][2] {
		t.Errorf("cc.get spans on pids %v, want both job pids 1 and 2", pidOf["cc.get"])
	}
	if count["cc.get"] != 4 {
		t.Errorf("%d cc.get spans, want 4 (2 jobs x 2 ranks)", count["cc.get"])
	}

	var buf bytes.Buffer
	if err := ot.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < 20 {
		t.Fatalf("only %d trace events", len(parsed.TraceEvents))
	}

	dump := ot.Metrics().Dump()
	for _, want := range []string{
		"counter cluster_jobs_admitted 2",
		"counter cluster_jobs_completed 2",
		"counter cluster_jobs_submitted 2",
		"gauge cluster_makespan_seconds ",
		"gauge cluster_rank_utilization_pct ",
		"histogram cluster_queue_wait_seconds count 2",
		"histogram cluster_service_seconds count 2",
		"histogram cluster_turnaround_seconds count 2",
		"counter pfs_read_bytes ",
		"counter mpi_messages ",
		"counter adio_collective_reads ",
		"counter rank_time_user_seconds ",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// eventCollector is an EventSink that keeps every mirrored event in memory,
// so tests can assert on instants (which have no iteration API on the
// tracer itself, unlike spans).
type eventCollector struct {
	events []obs.Event
}

func (ec *eventCollector) Emit(e obs.Event) { ec.events = append(ec.events, e) }

// TestDeadlineDropTelemetry pins the telemetry of a deadline drop: the
// "deadline-drop" instant carries the job name, the time it waited, and its
// deadline as span attrs, and the drop/miss counters advance. The waited
// attr is what dashboards need to distinguish "dropped instantly" from
// "starved until expiry", which the instant's bare timestamp cannot show.
func TestDeadlineDropTelemetry(t *testing.T) {
	ot := obs.New()
	ec := &eventCollector{}
	ot.SetSink(ec)
	c := New(Spec{Ranks: 2, RanksPerNode: 2, MaxConcurrent: 1, Obs: ot})
	c.Submit(&Job{Name: "long", Main: pureCompute(2)})
	dropped := c.Submit(&Job{Name: "victim", Deadline: 1, Main: pureCompute(1)})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dropped.Err, ErrDeadlineExpired) {
		t.Fatalf("victim.Err = %v, want ErrDeadlineExpired", dropped.Err)
	}

	var drops []obs.Event
	for _, e := range ec.events {
		if e.E == "instant" && e.Name == "deadline-drop" {
			drops = append(drops, e)
		}
	}
	if len(drops) != 1 {
		t.Fatalf("%d deadline-drop instants, want 1", len(drops))
	}
	attrs := map[string]string{}
	for _, a := range drops[0].Attrs {
		attrs[a.Key] = a.Val
	}
	if attrs["job"] != "victim" {
		t.Errorf(`drop attr job = %q, want "victim"`, attrs["job"])
	}
	// The victim queued at 0 and was dropped when the 2s blocker finished.
	if attrs["waited"] != "2" {
		t.Errorf(`drop attr waited = %q, want "2"`, attrs["waited"])
	}
	if attrs["deadline"] != "1" {
		t.Errorf(`drop attr deadline = %q, want "1"`, attrs["deadline"])
	}
	if drops[0].T != dropped.End {
		t.Errorf("drop instant at t=%v, want the drop time %v", drops[0].T, dropped.End)
	}

	m := ot.Metrics()
	if got, _ := m.CounterValue("cluster_jobs_dropped"); got != 1 {
		t.Errorf("cluster_jobs_dropped = %v, want 1", got)
	}
	if got, _ := m.CounterValue("cluster_deadline_misses"); got != 1 {
		t.Errorf("cluster_deadline_misses = %v, want 1", got)
	}
	// The dropped job never admits, so it must NOT contaminate the
	// queue-wait histogram (only the blocker's admission observes it).
	h := m.FindHistogram("cluster_queue_wait_seconds")
	if h == nil {
		t.Error("no cluster_queue_wait_seconds histogram recorded")
	} else if h.Count() != 1 {
		t.Errorf("cluster_queue_wait_seconds count = %d, want 1 (admitted jobs only)", h.Count())
	}
}

// TestTraceDeterminism: the same traced workload exports byte-identical
// trace JSON and metrics dumps across two runs.
func TestTraceDeterminism(t *testing.T) {
	once := func() (string, string) {
		c, ot := obsCluster(t, 4, 0)
		c.SubmitCC(ccSumJob("a", 2, 0, 8))
		c.SubmitCC(ccSumJob("b", 2, 8, 8))
		c.SubmitCC(ccSumJob("c", 4, 0, 16))
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ot.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), ot.Metrics().Dump()
	}
	tr1, m1 := once()
	tr2, m2 := once()
	if tr1 != tr2 {
		t.Error("trace exports differ between identical runs")
	}
	if m1 != m2 {
		t.Error("metrics dumps differ between identical runs")
	}
}

// TestCriticalPath: on a serialized queue every job chains off its
// predecessor's completion, so the critical path is the whole queue.
func TestCriticalPath(t *testing.T) {
	c := New(Spec{Ranks: 2, RanksPerNode: 2, MaxConcurrent: 1})
	var jrs []*JobResult
	for i := 0; i < 3; i++ {
		jrs = append(jrs, c.Submit(&Job{Name: "j", Main: computeJob(1)}))
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	chain := CriticalPath(res)
	if len(chain) != 3 {
		t.Fatalf("critical path %d jobs, want 3 (serial queue)", len(chain))
	}
	for i := range chain {
		if chain[i] != jrs[i] {
			t.Fatalf("critical path out of order at %d", i)
		}
	}

	// Concurrent disjoint jobs admit at submission: path is a single job.
	c2 := New(Spec{Ranks: 4, RanksPerNode: 2})
	c2.Submit(&Job{Name: "a", Ranks: 2, Main: computeJob(1)})
	c2.Submit(&Job{Name: "b", Ranks: 2, Main: computeJob(2)})
	res2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if chain := CriticalPath(res2); len(chain) != 1 || chain[0] != res2[1] {
		t.Fatalf("concurrent critical path = %d jobs, want just the long one", len(chain))
	}

	if CriticalPath(nil) != nil {
		t.Error("empty results must give an empty path")
	}
}

// TestRankTimeMirroredIntoCounters: the rank_time_*_seconds counters are the
// machine's RankTime totals, copied at the publish points like every other
// layer-owned number.
func TestRankTimeMirroredIntoCounters(t *testing.T) {
	ot := obs.New()
	c := New(Spec{Ranks: 2, RanksPerNode: 2, Obs: ot})
	c.Submit(&Job{Name: "uneven", Main: func(ctx *JobContext, r *mpi.Rank) error {
		r.Compute(1.5 - float64(r.Rank())) // 1.5 s on rank 0, 0.5 s on rank 1
		r.Sys(0)                           // zero-length: ignored
		ctx.Comm().Barrier(r)
		return nil
	}})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	reg, rt := ot.Metrics(), c.RankTime()
	for name, kind := range map[string]obs.Kind{
		"rank_time_user_seconds":      obs.Compute,
		"rank_time_sys_seconds":       obs.Sys,
		"rank_time_wait_io_seconds":   obs.WaitIO,
		"rank_time_wait_comm_seconds": obs.WaitComm,
	} {
		if got, want := reg.Counter(name).Value(), rt.Total(kind); got != want {
			t.Errorf("%s = %g, RankTime total %g", name, got, want)
		}
	}
	if v := reg.Counter("rank_time_user_seconds").Value(); v != 2 {
		t.Errorf("user %g, want 2", v)
	}
	if v := reg.Counter("rank_time_wait_io_seconds").Value(); v != 0 {
		t.Errorf("wait_io %g on a run that touched no storage", v)
	}
	// Rank 1 reaches the barrier a second before rank 0.
	if v := reg.Counter("rank_time_wait_comm_seconds").Value(); v < 1 {
		t.Errorf("wait_comm %g, want >= 1", v)
	}
}
