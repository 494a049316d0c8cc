package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/report"
)

// TestStatsAreWhatTheSpansSum: cc.Stats is not a second account of the map.
// For every job of a fault-free run, on the CC and the traditional leg and
// under both reduce modes, the cc.map rank-seconds report's fold sums from
// the job's spans are its MapSeconds plus ConstructSeconds.
func TestStatsAreWhatTheSpansSum(t *testing.T) {
	s := newJobsSetup(quick)
	ot, fold := obs.New(), report.New()
	ot.AddSink(fold)
	cl, err := s.machine(s.nranks, 0, ot)
	if err != nil {
		t.Fatal(err)
	}
	crs := map[*cluster.CCResult]bool{} // -> traditional leg
	for _, block := range []bool{false, true} {
		for _, red := range []cc.ReduceMode{cc.AllToOne, cc.AllToAll} {
			for i := 0; i < 2; i++ {
				j := s.job(i, s.jobRanks, 0)
				j.Name = fmt.Sprintf("%s-block%t-reduce%d", j.Name, block, red)
				j.Block, j.Reduce = block, red
				crs[cl.SubmitCC(j)] = block
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
