// Package host spreads the simulator's pure host work — generating, decoding
// and folding values, rendering telemetry lines, and weighing the workload
// generator's Zipf popularity tables — over the machine's cores. It is the one place the simulator starts goroutines of its own. The
// discrete-event kernel runs one process at a time (internal/sim): Pool runs
// a loop inside one such process's turn and returns before the process next
// yields; Slots runs a job beside the simulation, from one turn of a process
// until the process joins it; and Serial runs a producer's jobs beside it one
// at a time, in order, each joined before the next starts (the telemetry
// sinks render their batches of lines on one). A job beside the simulation
// may touch nothing the simulation does.
package host

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Grain is the work, in elements, below which Run and Slots.Start start no
// goroutine. Below it the hand-off costs more than the second core saves;
// the small windows of a memo-hit job stream stay inline.
const Grain = 1 << 15

// Pool runs loops on the host's cores, with one S of scratch per worker that
// is kept from call to call. The zero value is ready to use. A Pool serves
// one caller at a time: Run must not be called again until it has returned.
type Pool[S any] struct {
	scratch []S
}

// Run calls body(s, i) once for every i in [0, n), where s is the scratch of
// the worker running that call, and returns when all calls have returned.
// elems is the total work in elements. Calls run on up to
// runtime.GOMAXPROCS(0) workers, the calling goroutine being one of them;
// they run inline, in ascending i, when that is 1, when elems < Grain or
// when n < 2.
//
// Which worker runs which i, and in what order, is unspecified, so body must
// write only what its i owns and read nothing another call writes: then the
// result cannot depend on the schedule. A panic in body is re-raised on the
// calling goroutine, with the value of the lowest i that panicked, after every
// worker has stopped; the calls not yet started are skipped.
func (p *Pool[S]) Run(n int, elems int64, body func(s *S, i int)) {
	workers := 1
	if elems >= Grain {
		workers = max(1, min(runtime.GOMAXPROCS(0), n))
	}
	if len(p.scratch) < workers {
		p.scratch = append(p.scratch, make([]S, workers-len(p.scratch))...)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(&p.scratch[0], i)
		}
		return
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		failed  = n // lowest i that panicked; n = none
		failure any
	)
	work := func(s *S) {
		i := -1
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				mu.Lock()
				if i < failed {
					failed, failure = i, r
				}
				mu.Unlock()
			}
		}()
		for !stop.Load() {
			if i = int(next.Add(1) - 1); i >= n {
				return
			}
			body(s, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(s *S) {
			defer wg.Done()
			work(s)
		}(&p.scratch[w])
	}
	func() {
		// Even a Goexit from body on this goroutine waits for the others.
		defer wg.Wait()
		work(&p.scratch[0])
	}()
	if failed < n {
		panic(failure)
	}
}
