package host

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestSlotsRunEveryJobBesideTheCaller: every job started runs once, on a
// goroutine of its own when it is at least Grain elements and GOMAXPROCS is
// above 1, never more than GOMAXPROCS at once, each with a scratch no other
// running job holds; Start returns while its job is still running; and after
// the joins no goroutine is left and the scratches are kept.
func TestSlotsRunEveryJobBesideTheCaller(t *testing.T) {
	withProcs(4, func() {
		base := runtime.NumGoroutine()
		var p Slots[int]
		var running, peak, ran atomic.Int32
		release := make(chan struct{})
		const jobs = 12
		joins := make([]*Join, 0, jobs)
		for i := 0; i < jobs; i++ {
			// The first four jobs wait for release, so that Start must hand
			// each to a slot of its own and return before it ends.
			if i == 4 {
				close(release)
			}
			joins = append(joins, p.Start(Grain, func(s *int) {
				n := running.Add(1)
				defer running.Add(-1)
				for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
				}
				*s++ // a data race if two running jobs shared a scratch
				if i < 4 {
					<-release
				}
				ran.Add(1)
			}))
			if i < 4 && ran.Load() != 0 {
				t.Fatalf("job %d finished before release", i)
			}
		}
		for _, j := range joins {
			j.Wait()
		}
		if got := ran.Load(); got != jobs {
			t.Fatalf("%d jobs ran, want %d", got, jobs)
		}
		if got := peak.Load(); got > 4 {
			t.Fatalf("%d jobs ran at once at GOMAXPROCS=4", got)
		}
		var total int
		for _, s := range p.idle {
			total += *s
		}
		if len(p.idle) != 4 || p.busy != 0 || total != jobs {
			t.Fatalf("%d idle slots counting %d jobs, %d busy; want 4 counting %d, 0", len(p.idle), total, p.busy, jobs)
		}
		waitGoroutines(t, base)
	})
}

// waitGoroutines fails unless the goroutine count falls back to base: a
// goroutine that has run its last deferred call may still be counted for a
// moment.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after the joins, %d before the jobs", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlotsInlineBelowGrainOrOneProc: below Grain elements, or with one P,
// the job has run on the caller when Start returns, and its scratch is the
// one slot's.
func TestSlotsInlineBelowGrainOrOneProc(t *testing.T) {
	for _, tc := range []struct {
		procs int
		elems int64
	}{{1, 100 * Grain}, {4, Grain - 1}} {
		withProcs(tc.procs, func() {
			base := runtime.NumGoroutine()
			var p Slots[int]
			for i := 0; i < 3; i++ {
				done := false
				j := p.Start(tc.elems, func(s *int) {
					*s++
					done = runtime.NumGoroutine() == base
				})
				if !done {
					t.Fatalf("%+v: job %d had not run on the caller when Start returned", tc, i)
				}
				j.Wait()
			}
			if len(p.idle) != 1 || *p.idle[0] != 3 {
				t.Fatalf("%+v: slots %v, want one that ran all three jobs", tc, p.idle)
			}
		})
	}
}

// TestSlotsPanicReachesWait: a job's panic is re-raised by the first Wait
// on its join, with its value, on the goroutine that waits, inline or not;
// a second Wait returns; and the slot is free again.
func TestSlotsPanicReachesWait(t *testing.T) {
	for _, elems := range []int64{0, Grain} {
		withProcs(4, func() {
			var p Slots[int]
			j := p.Start(elems, func(*int) { panic("boom") })
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Errorf("elems=%d: Wait recovered %v, want boom", elems, r)
					}
				}()
				j.Wait()
				t.Errorf("elems=%d: Wait returned past a panicking job", elems)
			}()
			j.Wait()
			if p.busy != 0 {
				t.Errorf("elems=%d: %d slots busy after the panic", elems, p.busy)
			}
		})
	}
}
