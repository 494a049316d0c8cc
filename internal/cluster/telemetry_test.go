package cluster

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/climate"
	"repro/internal/obs"
	"repro/internal/pfs"
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

// TestSeriesSampleZeroAlloc: a series point is built in the cluster's OST and
// class scratch and rendered into the sink's reused line, so sampling a
// round — a wait entering a class window included — allocates nothing.
func TestSeriesSampleZeroAlloc(t *testing.T) {
	ot := obs.New()
	ot.SetSeries(obs.NewSeriesSink(io.Discard))
	c := New(Spec{Ranks: 8, RanksPerNode: 2, Obs: ot, FS: pfs.Params{NumOSTs: 156}})
	c.recordClassWait("batch", 1.5)
	c.recordClassWait("", 0.25)
	c.sampleSeries(1, 3, 4) // grow the scratch and the line buffer
	wait := 0.0
	if got := testing.AllocsPerRun(500, func() {
		wait += 0.5
		c.recordClassWait("batch", wait)
		c.sampleSeries(wait, 3, 4)
	}); got != 0 {
		t.Errorf("sampling a series point allocates %v times per round, want 0", got)
	}
}

// TestClassWaitSummaryMatchesFreshSort: a class window re-sorts only when a
// wait entered it, and its p50/p99 are then those of a fresh sort of the
// window, however waits and samples interleave across classes.
func TestClassWaitSummaryMatchesFreshSort(t *testing.T) {
	c := New(Spec{Ranks: 4, RanksPerNode: 2})
	r := rand.New(rand.NewSource(3))
	fresh := map[string][]float64{} // class -> its window's waits, oldest first
	for i := 0; i < 2000; i++ {
		cl := []string{"batch", "interactive", "default"}[r.Intn(3)]
		if r.Intn(2) == 0 {
			w := float64(r.Intn(50)) / 4
			c.recordClassWait(cl, w)
			fresh[cl] = append(fresh[cl], w)
			if len(fresh[cl]) > classWinCap {
				fresh[cl] = fresh[cl][1:]
			}
		}
		got := c.classWaits()
		if len(got) != len(fresh) {
			t.Fatalf("step %d: %d classes, want %d", i, len(got), len(fresh))
		}
		for j, cw := range got {
			if j > 0 && got[j-1].Class >= cw.Class {
				t.Fatalf("step %d: classes out of order: %q before %q", i, got[j-1].Class, cw.Class)
			}
			win := slices.Sorted(slices.Values(fresh[cw.Class]))
			rank := func(q float64) float64 {
				return win[min(max(int(q*float64(len(win))+0.5)-1, 0), len(win)-1)]
			}
			if cw.N != len(win) || cw.P50 != rank(0.50) || cw.P99 != rank(0.99) {
				t.Fatalf("step %d: %s = %+v, want n=%d p50=%v p99=%v", i, cw.Class, cw, len(win), rank(0.50), rank(0.99))
			}
		}
	}
}
