package cluster

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/climate"
	"repro/internal/obs"
)

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
