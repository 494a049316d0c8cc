package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// TestStatsAreWhatTheSpansSum: cc.Stats is not a second account of the map.
// For every job of a fault-free run, on the CC and the traditional leg and
// under both reduce modes, the cc.map rank-seconds report's fold sums from
// the job's spans are its MapSeconds plus ConstructSeconds.
func TestStatsAreWhatTheSpansSum(t *testing.T) {
	s := newJobsSetup(quick)
	ot, fold := obs.New(), report.New()
	ot.AddSink(fold)
	// A trace has no Block field, so the jobs are submitted by hand on the
	// trace's machine.
	cl, err := workload.Provision(s.trace(s.nranks, 0, nil), ot)
	if err != nil {
		t.Fatal(err)
	}
	crs := map[*cluster.CCResult]bool{} // -> traditional leg
	for _, block := range []bool{false, true} {
		for _, red := range []cc.ReduceMode{cc.AllToOne, cc.AllToAll} {
			for i := 0; i < 2; i++ {
				sub := s.analysis("", i, s.jobRanks)
				op, err := workload.OpByCode(sub.Op)
				if err != nil {
					t.Fatal(err)
				}
				crs[cl.SubmitCC(cluster.CCJob{
					Name:  fmt.Sprintf("%s-block%t-reduce%d", sub.Name, block, red),
					Ranks: sub.Ranks, Dataset: sub.Dataset,
					Slab: layout.Slab{Start: sub.Start, Count: sub.Count},
					Op:   op, Reduce: red, Block: block, SecPerElem: sub.SecPerElem,
				})] = block
			}
		}
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	for cr, traditional := range crs {
		if !cr.Valid() {
			t.Fatalf("%s: %v", cr.Job.Name, cr.Err)
		}
		// Only the CC leg constructs subsets inside the read.
		st := cr.Stats
		if st.MapSeconds <= 0 || (st.ConstructSeconds > 0) == traditional {
			t.Fatalf("%s: map %gs, construction %gs", cr.Job.Name, st.MapSeconds, st.ConstructSeconds)
		}
		got, want := fold.Job(cr.TracePID()).Sec[report.SlotMap], st.MapSeconds+st.ConstructSeconds
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: cc.map spans sum to %.12g rank-s, Stats say map %.12g + construction %.12g = %.12g",
				cr.Job.Name, got, st.MapSeconds, st.ConstructSeconds, want)
		}
	}
}
