package cluster

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/climate"
	"repro/internal/obs"
)

// TestLiveFramesPublished: with a Live cell installed on the tracer, the
// scheduler publishes frames at round boundaries plus once at the end of the
// run, and the final frame carries the finished job states and the registry
// snapshot.
func TestLiveFramesPublished(t *testing.T) {
	c, ot := obsCluster(t, 4, 1) // serialized queue: several rounds
	l := obs.NewLive()
	ot.SetLive(l)
	c.SubmitCC(ccSumJob("sum0", 2, 0, 8))
	c.SubmitCC(ccSumJob("sum1", 2, 8, 8))
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	f := l.Latest()
	if f == nil || f.Seq < 2 {
		t.Fatalf("final frame %+v, want several publishes", f)
	}
	if f.RanksTotal != 4 || f.QueueDepth != 0 || f.RanksBusy != 0 {
		t.Fatalf("final frame %+v, want drained cluster", f)
	}
	if len(f.Jobs) != 2 {
		t.Fatalf("%d jobs in frame, want 2", len(f.Jobs))
	}
	for _, j := range f.Jobs {
		if j.State != "done" || j.End < 0 {
			t.Fatalf("job %+v, want done", j)
		}
	}
	if len(f.OSTReadLat) == 0 {
		t.Fatal("no OST latency strip in frame")
	}
	if v, ok := f.Reg.CounterValue("cluster_jobs_submitted"); !ok || v != 2 {
		t.Fatalf("snapshot cluster_jobs_submitted %g %v", v, ok)
	}
	// Mid-run frames existed: the history shows a busy cluster at some point.
	_, rb := l.History()
	busy := false
	for _, v := range rb {
		if v > 0 {
			busy = true
		}
	}
	if !busy {
		t.Fatalf("rank-busy history %v never saw a busy round", rb)
	}
}

// TestMemoGauges runs the memo workload under a tracer and checks the
// mirrored memo_events{kind} gauges against MemoStats.
func TestMemoGauges(t *testing.T) {
	ot := obs.New()
	c := New(Spec{Ranks: 4, RanksPerNode: 2, Memo: true, Obs: ot})
	ds, _, err := climate.NewDataset3D(c.FS(), []int64{16, 32, 32}, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterDataset("climate", ds)
	memoWorkload(c)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	s := c.MemoStats()
	if s.Hits == 0 {
		t.Fatalf("memo stats %+v, want hits", s)
	}
	m := ot.Metrics()
	for kind, want := range map[string]float64{
		"hits":        float64(s.Hits),
		"waiters":     float64(s.Waiters),
		"coalesced":   float64(s.Coalesced),
		"misses":      float64(s.Misses),
		"bytes_saved": float64(s.BytesSaved),
	} {
		if v, ok := m.GaugeVecValue("memo_events", kind); !ok || v != want {
			t.Errorf("memo_events{kind=%q} = %g (ok=%v), want %g", kind, v, ok, want)
		}
	}
	// Gauges, not counters, and only the labeled family: the unlabeled
	// memo_<kind> aliases are gone.
	dump := m.Dump()
	if !strings.Contains(dump, `gauge memo_events{kind="hits"} `) {
		t.Errorf("dump does not list memo_events{kind=\"hits\"} as a gauge:\n%s", dump)
	}
	if strings.Contains(dump, "counter memo_") || strings.Contains(dump, "gauge memo_hits ") {
		t.Errorf("dump lists memo_* as counters or under an unlabeled alias:\n%s", dump)
	}
}

// TestClusterEventLogDeterminism: two identical traced runs mirror
// byte-identical JSONL event logs.
func TestClusterEventLogDeterminism(t *testing.T) {
	once := func() []byte {
		var buf bytes.Buffer
		c, ot := obsCluster(t, 4, 1)
		sink := obs.NewJSONLSink(&buf)
		ot.AddSink(sink)
		ot.SetSLO(obs.NewSLO())
		c.SubmitCC(ccSumJob("a", 2, 0, 8))
		c.SubmitCC(ccSumJob("b", 2, 8, 8))
		c.SubmitCC(ccSumJob("c", 4, 0, 16))
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	b1, b2 := once(), once()
	if len(b1) == 0 {
		t.Fatal("no events mirrored")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("event logs differ between identical runs")
	}
	events, err := obs.ReadEvents(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.E]++
	}
	for _, k := range []string{"span", "begin", "end", "sample"} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in cluster log (kinds %v)", k, kinds)
		}
	}
}

// TestPublishCostIndependentOfDecisionStream: publishing a live frame after
// a run allocates the same whether the decision stream holds what the run
// recorded or a hundred thousand records more — the frame views the stream,
// it does not copy it.
func TestPublishCostIndependentOfDecisionStream(t *testing.T) {
	c, ot := obsCluster(t, 4, 1)
	ot.SetLive(obs.NewLive())
	ot.EnableDecisions()
	c.SubmitCC(ccSumJob("sum0", 2, 0, 8))
	c.SubmitCC(ccSumJob("sum1", 2, 8, 8))
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	publish := func() { c.publishTelemetry(c.env.Now(), 0, 0) }
	short := testing.AllocsPerRun(20, publish)
	bytesPer := func() uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < 20; i++ {
			publish()
		}
		runtime.ReadMemStats(&b)
		return (b.TotalAlloc - a.TotalAlloc) / 20
	}
	shortBytes := bytesPer()
	rec := ot.Decisions()[0]
	for i := 0; i < 100_000; i++ {
		ot.Decision(rec)
	}
	if long := testing.AllocsPerRun(20, publish); long != short {
		t.Errorf("publish allocates %v times with a long decision stream, %v with a short one", long, short)
	}
	if longBytes := bytesPer(); longBytes > shortBytes+shortBytes/10+1024 {
		t.Errorf("publish allocates %d bytes with a long decision stream, %d with a short one", longBytes, shortBytes)
	}
	if f := ot.Live().Latest(); len(f.Decisions) != len(ot.Decisions()) {
		t.Errorf("latest frame holds %d decisions, stream %d", len(f.Decisions), len(ot.Decisions()))
	}
}
