package host

import "runtime"

// Serial runs jobs beside its caller one at a time, in the order they are
// started: Start joins the job before, then hands the new one to a goroutine
// of its own and returns, and Wait joins the last. Each job therefore sees
// whatever the jobs before it wrote, and the caller may touch what a job
// touched once it has joined it. It is for a stream of host work a producer
// hands off in order, such as rendering a log: the job must touch nothing
// but what the caller hands it and leaves alone until the join, since the
// simulation goes on around it. One goroutine at a time may call Start and Wait; the zero value
// is ready to use, and a hand-off after the first allocates nothing.
type Serial struct {
	j   Join
	job func()
	run func() // s.body, bound once so that the go statement needs no closure
}

// Start waits for the job before, then runs job. elems is the job's work in
// elements: with runtime.GOMAXPROCS(0) at 1, or below Grain, job runs on the
// caller before Start returns; otherwise it runs on a goroutine of its own,
// which ends with the job. A panic in the job before is re-raised here, and
// job is then not started.
func (s *Serial) Start(elems int64, job func()) {
	s.j.Wait()
	s.job = job
	if elems < Grain || runtime.GOMAXPROCS(0) == 1 {
		s.call()
		return
	}
	if s.run == nil {
		s.run = s.body
	}
	s.j.wg.Add(1)
	go s.run()
}

// Wait returns when the last job started has returned. If it panicked, the
// first Wait re-raises its value on the calling goroutine.
func (s *Serial) Wait() { s.j.Wait() }

// body is the goroutine of a job started beside the caller.
func (s *Serial) body() {
	defer s.j.wg.Done()
	s.call()
}

// call runs the job and keeps what it panicked with for the join.
func (s *Serial) call() {
	defer func() {
		if r := recover(); r != nil {
			s.j.failed, s.j.failure = true, r
		}
	}()
	s.job()
}
