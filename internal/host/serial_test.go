package host

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestSerialRunsJobsInOrderBesideTheCaller: at Grain elements and GOMAXPROCS
// above 1, Start returns while its job still runs, the next Start joins it
// first, so the jobs run one at a time in the order started and each sees
// what the one before wrote; after Wait no goroutine is left.
func TestSerialRunsJobsInOrderBesideTheCaller(t *testing.T) {
	withProcs(4, func() {
		base := runtime.NumGoroutine()
		var (
			s       Serial
			order   []int // written by the jobs only: a data race unless they are serialized
			running atomic.Int32
			release = make(chan struct{})
		)
		const jobs = 50
		for i := 0; i < jobs; i++ {
			s.Start(Grain, func() {
				if running.Add(1) != 1 {
					t.Errorf("job %d overlaps another", i)
				}
				defer running.Add(-1)
				if i == 0 {
					<-release
				}
				order = append(order, i)
			})
			if i == 0 {
				// Job 0 waits for release, so Start returned while it ran.
				close(release)
			}
		}
		s.Wait()
		if len(order) != jobs {
			t.Fatalf("%d jobs ran, want %d", len(order), jobs)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("job %d ran in place %d: %v", v, i, order)
			}
		}
		waitGoroutines(t, base)
	})
}

// TestSerialInlineBelowGrainOrOneProc: below Grain elements, or with one P,
// the job has run on the caller when Start returns.
func TestSerialInlineBelowGrainOrOneProc(t *testing.T) {
	for _, tc := range []struct {
		procs int
		elems int64
	}{{1, 100 * Grain}, {4, Grain - 1}} {
		withProcs(tc.procs, func() {
			base := runtime.NumGoroutine()
			var s Serial
			for i := 0; i < 3; i++ {
				done := false
				s.Start(tc.elems, func() { done = runtime.NumGoroutine() == base })
				if !done {
					t.Fatalf("%+v: job %d had not run on the caller when Start returned", tc, i)
				}
			}
			s.Wait()
		})
	}
}

// TestSerialPanicReachesTheJoin: a job's panic is re-raised, with its value,
// by the Wait or Start that joins it, inline or not; a Start that re-raises
// does not start its job; and the Serial is usable afterwards.
func TestSerialPanicReachesTheJoin(t *testing.T) {
	for _, elems := range []int64{0, Grain} {
		withProcs(4, func() {
			var s Serial
			reraised := func(join func()) {
				t.Helper()
				defer func() {
					if r := recover(); r != "boom" {
						t.Errorf("elems=%d: join recovered %v, want boom", elems, r)
					}
				}()
				join()
				t.Errorf("elems=%d: join returned past a panicking job", elems)
			}
			s.Start(elems, func() { panic("boom") })
			reraised(s.Wait)
			s.Wait()

			ran := false
			s.Start(elems, func() { panic("boom") })
			reraised(func() { s.Start(elems, func() { ran = true }) })
			s.Wait()
			if ran {
				t.Errorf("elems=%d: the Start that re-raised started its job", elems)
			}
			s.Start(elems, func() { ran = true })
			s.Wait()
			if !ran {
				t.Errorf("elems=%d: no job ran after a panic", elems)
			}
		})
	}
}

// TestSerialHandOffAllocatesNothing: once the first job has bound the
// goroutine's body, starting a job beside the caller and joining it
// allocates nothing of Serial's. The runtime allocates a goroutine
// descriptor when it has no dead one to reuse (a busy host makes that
// likelier), so the bound is a quarter of the hand-offs, not none.
func TestSerialHandOffAllocatesNothing(t *testing.T) {
	withProcs(2, func() {
		var s Serial
		n := 0
		job := func() { n++ }
		s.Start(Grain, job)
		s.Wait()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const jobs = 1000
		for i := 0; i < jobs; i++ {
			s.Start(Grain, job)
		}
		s.Wait()
		runtime.ReadMemStats(&m1)
		if got := m1.Mallocs - m0.Mallocs; got > jobs/4 {
			t.Errorf("%d allocations for %d hand-offs", got, jobs)
		}
		if n != jobs+1 {
			t.Fatalf("%d jobs ran, want %d", n, jobs+1)
		}
	})
}
