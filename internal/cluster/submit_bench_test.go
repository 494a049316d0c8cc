package cluster_test

import (
	"runtime"
	"testing"

	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/workload"
)

// BenchmarkSubmitCCStream queues a generated 6,000-job stream — the default
// three-dataset spec at 40x the rate the machine serves, the shape of
// bench's sched_backlog — on a fresh memo cluster per iteration, and
// reports what queueing costs per job: ns/job and allocs/job, provisioning
// excluded.
func BenchmarkSubmitCCStream(b *testing.B) {
	const jobs = 6000
	tr, err := workload.Generate(workload.DefaultSpec(11, 40, float64(jobs)/(20*40)*1.3, jobs, "priority"))
	if err != nil {
		b.Fatal(err)
	}
	if len(tr.Jobs) < jobs {
		b.Fatalf("stream has %d jobs, want %d", len(tr.Jobs), jobs)
	}
	ccjobs := make([]cluster.CCJob, len(tr.Jobs))
	for i := range tr.Jobs {
		s := &tr.Jobs[i]
		op, err := workload.OpByCode(s.Op)
		if err != nil {
			b.Fatal(err)
		}
		ccjobs[i] = cluster.CCJob{
			Name: s.Name, Ranks: s.Ranks, Deadline: s.Deadline, Priority: s.Priority,
			EstCost: s.EstCost, Class: s.Class, Dataset: s.Dataset,
			Slab:     layout.Slab{Start: s.Start, Count: s.Count},
			SplitDim: s.SplitDim, Op: op, Reduce: cc.ReduceMode(s.Reduce),
			SecPerElem: s.SecPerElem,
		}
	}
	var ms runtime.MemStats
	var mallocs uint64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		c, err := workload.Provision(tr, nil)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		for i := range ccjobs {
			c.SubmitCCAt(tr.Jobs[i].T, ccjobs[i])
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	perRun := float64(b.N * len(ccjobs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRun, "ns/job")
	b.ReportMetric(float64(mallocs)/perRun, "allocs/job")
}
