package cluster

import (
	"fmt"
	"math"
)

// Session is a named handle onto the cluster's job queue: a client's view of
// its own submissions. Jobs submitted through different sessions share the
// machine, the dataset registry, and any keyed plan caches, but each session
// lists only its own results.
type Session struct {
	c       *Cluster
	name    string
	results []*JobResult
}

// Session opens a named session. Must be called before Run.
func (c *Cluster) Session(name string) *Session {
	if c.ran {
		panic("cluster: Session after Run")
	}
	return &Session{c: c, name: name}
}

// Name returns the session label.
func (s *Session) Name() string { return s.name }

// SetWeight sets the session's fair-share weight (default 1): under the
// "fairshare" scheduling policy, a tenant of weight w is entitled to a
// w-proportional slice of delivered service, so its jobs are preferred
// until its weight-normalized charge catches up. Must be called before Run
// (the policy orders tenants by usage/weight and re-keys one only when its
// usage moves). Panics unless w is finite and > 0 — a NaN weight would make
// every comparison against the tenant false and its place in the order an
// accident of queue position; returns s for chaining. Sessions sharing a
// name share the weight (last call wins).
func (s *Session) SetWeight(w float64) *Session {
	if s.c.ran {
		panic(fmt.Sprintf("cluster: session %q SetWeight after Run", s.name))
	}
	if !(w > 0) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("cluster: session %q fair-share weight %v (must be finite and > 0)", s.name, w))
	}
	s.c.tenantWeight[s.name] = w
	return s
}

// Submit queues j at time 0 under this session.
func (s *Session) Submit(j *Job) *JobResult {
	jr := s.c.Submit(j)
	jr.session = s
	s.results = append(s.results, jr)
	return jr
}

// SubmitAt queues j at virtual time t under this session.
func (s *Session) SubmitAt(t float64, j *Job) *JobResult {
	jr := s.c.SubmitAt(t, j)
	jr.session = s
	s.results = append(s.results, jr)
	return jr
}

// SubmitCC queues a declarative collective-computing job (see CCJob).
func (s *Session) SubmitCC(j CCJob) *CCResult {
	cr := s.c.SubmitCC(j)
	cr.JobResult.session = s
	s.results = append(s.results, cr.JobResult)
	return cr
}

// SubmitCCAt queues a declarative collective-computing job arriving at
// virtual time t under this session.
func (s *Session) SubmitCCAt(t float64, j CCJob) *CCResult {
	cr := s.c.SubmitCCAt(t, j)
	cr.JobResult.session = s
	s.results = append(s.results, cr.JobResult)
	return cr
}

// Results returns this session's submissions in submission order.
func (s *Session) Results() []*JobResult { return s.results }
