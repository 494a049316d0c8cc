package host

import (
	"runtime"
	"sync"
)

// Slots runs jobs beside their caller: Start hands a job to one of at most
// runtime.GOMAXPROCS(0) slots and returns at once, and the caller joins the
// job later. Each slot has an S of scratch that the slot's next job gets
// back. It is for host work a rank can overlap with its own simulated time:
// the job must touch nothing but its slot's scratch and inputs nobody
// writes while it runs, since the simulation goes on around it. The zero
// value is ready to use, and any goroutine may call Start.
type Slots[S any] struct {
	mu   sync.Mutex
	cond sync.Cond // on mu: a slot was released
	busy int
	idle []*S
}

// Join is the caller's handle on a job Start began.
type Join struct {
	wg      sync.WaitGroup
	failed  bool
	failure any
}

// Start runs body(s) with a free slot's scratch s, waiting for a slot when
// all are busy, and returns the job's Join. elems is the job's work in
// elements: with runtime.GOMAXPROCS(0) at 1, or below Grain, body runs on
// the caller before Start returns; otherwise it runs on a goroutine of its
// own, which ends with the job.
func (p *Slots[S]) Start(elems int64, body func(s *S)) *Join {
	j := new(Join)
	s := p.acquire()
	if elems < Grain || runtime.GOMAXPROCS(0) == 1 {
		p.run(j, s, body)
		return j
	}
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		p.run(j, s, body)
	}()
	return j
}

// run calls body on slot s, gives the slot back, and keeps what body
// panicked with for j's Wait.
func (p *Slots[S]) run(j *Join, s *S, body func(*S)) {
	defer func() {
		p.release(s)
		if r := recover(); r != nil {
			j.failed, j.failure = true, r
		}
	}()
	body(s)
}

// Wait returns when the job has returned. If the job panicked, the first
// Wait re-raises its value on the calling goroutine; a later Wait returns.
func (j *Join) Wait() {
	j.wg.Wait()
	if j.failed {
		j.failed = false
		panic(j.failure)
	}
}

// acquire takes a slot, waiting until one is free.
func (p *Slots[S]) acquire() *S {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cond.L == nil {
		p.cond.L = &p.mu
	}
	for p.busy >= runtime.GOMAXPROCS(0) {
		p.cond.Wait()
	}
	p.busy++
	if n := len(p.idle); n > 0 {
		s := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return s
	}
	return new(S)
}

// release gives slot s back.
func (p *Slots[S]) release(s *S) {
	p.mu.Lock()
	p.busy--
	p.idle = append(p.idle, s)
	p.mu.Unlock()
	p.cond.Signal()
}
