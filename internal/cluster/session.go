package cluster

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
