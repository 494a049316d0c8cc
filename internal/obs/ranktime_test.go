package obs

import (
	"math"
	"testing"
)

func TestRankTimeTotals(t *testing.T) {
	rt := NewRankTime(2)
	rt.Record(0, Compute, 0, 2.5)
	rt.Record(1, Compute, 1, 2)
	rt.Record(0, Sys, 2.5, 3)
	rt.Record(0, WaitIO, 3, 4)
	if got := rt.Total(Compute); got != 3.5 {
		t.Errorf("Total(Compute) = %g", got)
	}
	if got := rt.RankTotal(0, Compute); got != 2.5 {
		t.Errorf("RankTotal = %g", got)
	}
}

func TestRankTimeIgnoresJunk(t *testing.T) {
	rt := NewRankTime(1)
	rt.Record(0, Compute, 5, 5)  // zero length
	rt.Record(0, Compute, 5, 4)  // negative
	rt.Record(-1, Compute, 0, 1) // bad rank
	rt.Record(7, Compute, 0, 1)  // bad rank
	if rt.Total(Compute) != 0 {
		t.Error("junk intervals counted")
	}
}

// TestNilRankTimeDiscards: mpi worlds and pfs clients built without a
// cluster hold a nil RankTime and record into it on every charge.
func TestNilRankTimeDiscards(t *testing.T) {
	var rt *RankTime
	rt.Record(0, Compute, 0, 1) // must not panic
}

// TestNumKindsCoversAll: the per-kind arrays, Summary and the cluster's
// rank_time_*_seconds mirror each name all four kinds.
func TestNumKindsCoversAll(t *testing.T) {
	if NumKinds != 4 || int(WaitComm) != NumKinds-1 {
		t.Fatalf("NumKinds = %d, last kind %d; update Summary and cluster.mirrorTotals if kinds changed", NumKinds, WaitComm)
	}
}

// TestUnprofiledKeepsNoSeries: without Profile the accumulator is its totals
// and nothing else — Record allocates nothing and there is no CPU profile.
func TestUnprofiledKeepsNoSeries(t *testing.T) {
	rt := NewRankTime(4)
	allocs := testing.AllocsPerRun(1000, func() { rt.Record(3, WaitIO, 0.25, 7.5) })
	if allocs != 0 {
		t.Fatalf("unprofiled Record allocated %.1f/op, want 0", allocs)
	}
	if rt.series != nil || rt.CPUProfile(10) != nil {
		t.Fatal("unprofiled RankTime kept a series")
	}
	if rt.RankTotal(3, WaitIO) == 0 {
		t.Fatal("unprofiled RankTime kept no totals")
	}
}

func TestCPUProfileBuckets(t *testing.T) {
	rt := NewRankTime(1)
	rt.Profile(1.0)
	// Rank computes from 0.5 to 1.5: half of bucket 0, half of bucket 1.
	rt.Record(0, Compute, 0.5, 1.5)
	prof := rt.CPUProfile(2.0)
	if len(prof) != 2 {
		t.Fatalf("%d buckets", len(prof))
	}
	if math.Abs(prof[0].User-50) > 1e-9 || math.Abs(prof[1].User-50) > 1e-9 {
		t.Errorf("user%% = %g, %g; want 50, 50", prof[0].User, prof[1].User)
	}
	// Unattributed time becomes wait.
	if math.Abs(prof[0].Wait-50) > 1e-9 {
		t.Errorf("wait%% = %g, want 50", prof[0].Wait)
	}
	if u := prof[0].User + prof[0].SysPct + prof[0].Wait; math.Abs(u-100) > 1e-9 {
		t.Errorf("bucket sums to %g%%", u)
	}
}

func TestCPUProfilePartialFinalBucket(t *testing.T) {
	rt := NewRankTime(2)
	rt.Profile(1.0)
	rt.Record(0, Compute, 2.0, 2.5)
	rt.Record(1, Compute, 2.0, 2.5)
	prof := rt.CPUProfile(2.5) // final bucket only half-wide
	last := prof[len(prof)-1]
	if math.Abs(last.User-100) > 1e-9 {
		t.Errorf("final bucket user%% = %g, want 100 (both ranks busy all of it)", last.User)
	}
}

func TestCPUProfileEmpty(t *testing.T) {
	rt := NewRankTime(1)
	rt.Profile(1.0)
	if p := rt.CPUProfile(0); p != nil {
		t.Error("profile of zero-length run not nil")
	}
	p := rt.CPUProfile(1)
	if len(p) != 1 || p[0].Wait != 100 {
		t.Errorf("idle bucket = %+v", p)
	}
}

func TestRecordClampsNegativeStart(t *testing.T) {
	rt := NewRankTime(1)
	rt.Profile(1.0)
	// An interval straddling t=0 must be clamped: only [0, 0.5) counts, and
	// none of it may leak into bucket 0 from the negative side.
	rt.Record(0, Compute, -0.5, 0.5)
	if got := rt.Total(Compute); got != 0.5 {
		t.Fatalf("total %g, want 0.5 (clamped)", got)
	}
	prof := rt.CPUProfile(1)
	if len(prof) != 1 {
		t.Fatalf("%d buckets", len(prof))
	}
	if got := prof[0].User; math.Abs(got-50) > 1e-9 {
		t.Fatalf("bucket0 user%% = %g, want 50", got)
	}
	// Entirely-negative intervals are dropped.
	rt2 := NewRankTime(1)
	rt2.Record(0, Compute, -2, -1)
	if rt2.Total(Compute) != 0 {
		t.Fatal("pre-zero interval recorded")
	}
}

func TestSummaryString(t *testing.T) {
	rt := NewRankTime(1)
	rt.Record(0, Compute, 0, 1)
	rt.Record(0, WaitIO, 1, 1.5)
	if s, want := rt.Summary(), "user 1.00s sys 0.00s wait-io 0.50s wait-comm 0.00s"; s != want {
		t.Errorf("summary %q, want %q", s, want)
	}
}

func TestProfileBadBucket(t *testing.T) {
	rt := NewRankTime(1)
	rt.Profile(0) // must not divide by zero
	rt.Record(0, Compute, 0, 0.5)
	if rt.Total(Compute) != 0.5 || len(rt.CPUProfile(1)) != 1 {
		t.Error("fallback bucket broken")
	}
}
