package experiments

import (
	"math"
	"testing"

	"repro/internal/obs"
)

func TestIterStatsSeries(t *testing.T) {
	is := newIterStats()
	// Two aggregators execute iteration 0; one executes iteration 2.
	is.ObserveIter(0, 0, 1.0, 0.2, 100)
	is.ObserveIter(1, 0, 3.0, 0.4, 200)
	is.ObserveIter(0, 2, 2.0, 0.1, 50)
	s := is.series()
	if len(s) != 2 {
		t.Fatalf("%d samples", len(s))
	}
	if s[0].iter != 0 || s[1].iter != 2 {
		t.Fatalf("iteration order: %+v", s)
	}
	if s[0].read != 2.0 || math.Abs(s[0].shuffle-0.3) > 1e-12 {
		t.Errorf("iter0 mean read/shuffle = %g/%g", s[0].read, s[0].shuffle)
	}
	if is.iterations != 3 || is.bytes != 350 {
		t.Errorf("totals: %d iters %d bytes", is.iterations, is.bytes)
	}
	// Per-sample bytes: mean matches the per-aggregator means of
	// read/shuffle, total is the raw sum.
	if s[0].meanBytes != 150 || s[0].totalBytes != 300 {
		t.Errorf("iter0 bytes mean/total = %g/%d, want 150/300", s[0].meanBytes, s[0].totalBytes)
	}
	if s[1].meanBytes != 50 || s[1].totalBytes != 50 {
		t.Errorf("iter2 bytes mean/total = %g/%d, want 50/50", s[1].meanBytes, s[1].totalBytes)
	}
}

func TestShuffleOverhead(t *testing.T) {
	is := newIterStats()
	if is.shuffleOverhead() != 0 {
		t.Error("empty overhead != 0")
	}
	is.ObserveIter(0, 0, 8, 2, 0)
	if got := is.shuffleOverhead(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("overhead = %g, want 0.2", got)
	}
}

// rankTimeMetrics names the registry counter each kind's total is mirrored
// into.
var rankTimeMetrics = [obs.NumKinds]string{
	obs.Compute:  "rank_time_user_seconds",
	obs.Sys:      "rank_time_sys_seconds",
	obs.WaitIO:   "rank_time_wait_io_seconds",
	obs.WaitComm: "rank_time_wait_comm_seconds",
}

// TestRankTimeConservation: rank time is accounted once and adds up. On the
// quick Figure 2 and Figure 3 runs and one CC Sum job, no rank is charged more
// time than the run lasted (the intervals a rank reports never overlap, so its
// Σ over kinds is at most the makespan — the busiest rank sits right at it),
// the rank_time_*_seconds counters are exactly RankTime's totals, and
// attaching a span tracer changes no rank's accounting by a bit.
func TestRankTimeConservation(t *testing.T) {
	cfg := Config{Quick: true}
	_, sum := fig9Bench(cfg).legs("cc-sum", 2e-8)
	for _, l := range []leg{fig1Leg(cfg, "fig2"), fig1Leg(cfg, "fig3"), sum} {
		t.Run(l.name, func(t *testing.T) {
			traced := l
			traced.obs = obs.New()
			run, err := runLeg(traced)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := runLeg(l)
			if err != nil {
				t.Fatal(err)
			}
			cl, makespan, ot := run.cl, run.makespan, traced.obs
			if makespan <= 0 || makespan != bare.makespan {
				t.Fatalf("makespan %v traced, %v bare", makespan, bare.makespan)
			}
			rt, nranks := cl.RankTime(), cl.World().Size()
			var busiest float64
			for rank := 0; rank < nranks; rank++ {
				var charged float64
				for k := obs.Kind(0); int(k) < obs.NumKinds; k++ {
					charged += rt.RankTotal(rank, k)
					if got, want := rt.RankTotal(rank, k), bare.cl.RankTime().RankTotal(rank, k); got != want {
						t.Errorf("rank %d kind %d: %v with a span tracer, %v without", rank, k, got, want)
					}
				}
				if charged > makespan*(1+1e-9) {
					t.Errorf("rank %d is charged %.9fs of a %.9fs run", rank, charged, makespan)
				}
				busiest = math.Max(busiest, charged)
			}
			if busiest < 0.99*makespan {
				t.Errorf("busiest rank is charged %.9fs of a %.9fs run: time is going unaccounted", busiest, makespan)
			}
			for k, name := range rankTimeMetrics {
				if got, want := ot.Metrics().Counter(name).Value(), rt.Total(obs.Kind(k)); got != want || want < 0 {
					t.Errorf("%s = %v, RankTime total %v", name, got, want)
				}
			}
			if rt.Total(obs.Sys) == 0 || rt.Total(obs.WaitIO) == 0 {
				t.Errorf("no sys or wait-io time recorded: %s", rt.Summary())
			}
		})
	}
}
