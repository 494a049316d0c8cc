package host

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at GOMAXPROCS n and restores the previous setting.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestRunCallsEveryIndexOnce: every i in [0, n) is run exactly once, inline
// and on workers, and each worker's scratch is its own.
func TestRunCallsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, elems := range []int64{0, Grain - 1, Grain, 10 * Grain} {
			withProcs(procs, func() {
				var p Pool[int]
				const n = 1000
				var calls [n]atomic.Int32
				p.Run(n, elems, func(s *int, i int) {
					*s++ // a data race if two workers shared a scratch
					calls[i].Add(1)
				})
				var total int
				for _, s := range p.scratch {
					total += s
				}
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Fatalf("GOMAXPROCS=%d elems=%d: index %d ran %d times", procs, elems, i, c)
					}
				}
				if total != n {
					t.Fatalf("GOMAXPROCS=%d elems=%d: scratches counted %d calls, want %d", procs, elems, total, n)
				}
			})
		}
	}
}

// TestRunInlineBelowGrainOrOneProc: with one P, or with less work than
// Grain, or one index, the calls run on the caller, in order, with worker 0's
// scratch — no goroutine is started.
func TestRunInlineBelowGrainOrOneProc(t *testing.T) {
	for _, tc := range []struct {
		procs, n int
		elems    int64
	}{{1, 50, 100 * Grain}, {4, 50, Grain - 1}, {4, 1, 100 * Grain}} {
		withProcs(tc.procs, func() {
			var p Pool[[]int]
			p.Run(tc.n, tc.elems, func(s *[]int, i int) { *s = append(*s, i) })
			if len(p.scratch) != 1 || len(p.scratch[0]) != tc.n {
				t.Fatalf("%+v: scratches %v, want one holding every index", tc, p.scratch)
			}
			for i, got := range p.scratch[0] {
				if got != i {
					t.Fatalf("%+v: call %d ran index %d", tc, i, got)
				}
			}
		})
	}
}

// TestRunUsesWorkers: at or above Grain with more than one P, the calls run
// on more than one goroutine at once. Index 0 waits for index 1, which the
// inline path would only reach after 0 returned.
func TestRunUsesWorkers(t *testing.T) {
	withProcs(2, func() {
		var p Pool[struct{}]
		met := make(chan struct{})
		p.Run(2, Grain, func(_ *struct{}, i int) {
			if i == 1 {
				close(met)
				return
			}
			select {
			case <-met:
			case <-time.After(10 * time.Second):
				t.Error("index 0 never saw index 1 start: Run did not start a worker")
			}
		})
	})
}

// TestRunReraisesPanicAfterWorkersStop: a panic on any worker reaches Run's
// caller with the value of the lowest panicking index, after every worker has
// returned, and the indices not yet started are skipped.
func TestRunReraisesPanicAfterWorkersStop(t *testing.T) {
	type boom struct{ i int }
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			var p Pool[struct{}]
			var running, ran atomic.Int32
			const n = 10000
			func() {
				defer func() {
					if r := recover(); r != (boom{7}) {
						t.Errorf("GOMAXPROCS=%d: recovered %#v, want %#v", procs, r, boom{7})
					}
				}()
				p.Run(n, 100*Grain, func(_ *struct{}, i int) {
					running.Add(1)
					defer running.Add(-1)
					ran.Add(1)
					if i >= 7 && i%7 == 0 {
						panic(boom{i})
					}
					time.Sleep(time.Microsecond)
				})
			}()
			if r := running.Load(); r != 0 {
				t.Errorf("GOMAXPROCS=%d: %d calls still running after Run unwound", procs, r)
			}
			if r := ran.Load(); r >= n {
				t.Errorf("GOMAXPROCS=%d: all %d indices ran past a panic", procs, r)
			}
		})
	}
}
