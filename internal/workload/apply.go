// Applying a workload trace to a machine: provision the cluster and
// datasets the trace names, submit every job at its recorded timestamp
// through a per-tenant session, and roll the results up per SLO class.
// Replay is intentionally dumb — no re-sampling, no normalization beyond
// what cluster.SubmitCC and SubmitCCAt themselves do — so a recorded stream
// drives the scheduler exactly as the original generation did, and two runs
// of the same trace are bit-identical. A job at T = 0 goes in with the batch
// the run starts from, as cluster.SubmitCC queues it; any other arrives at T.
package workload

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/ncfile"
	"repro/internal/obs"
)

// newDataset3D materializes one synthetic 3-D dataset on the cluster's file
// system.
func newDataset3D(c *cluster.Cluster, d DatasetSpec) (*ncfile.Dataset, int, error) {
	return climate.NewDataset3D(c.FS(), d.Dims, d.StripeCount, d.StripeSize)
}

// slabOf builds the submission's access slab (cloned: traces are shared
// between runs in replay-identity checks).
func slabOf(s *Submission) layout.Slab {
	return layout.Slab{
		Start: append([]int64(nil), s.Start...),
		Count: append([]int64(nil), s.Count...),
	}
}

// reduceMode converts the trace's integer reduce code.
func reduceMode(v int) cc.ReduceMode { return cc.ReduceMode(v) }

// Provision builds the machine a trace targets: the cluster from the
// trace's Machine header (with ot as its telemetry plane, may be nil) and
// every dataset header registered under its trace name.
func Provision(tr *Trace, ot *obs.Tracer) (*cluster.Cluster, error) {
	c := cluster.New(cluster.Spec{
		Ranks:         tr.Machine.Ranks,
		RanksPerNode:  tr.Machine.RanksPerNode,
		Policy:        tr.Machine.Policy,
		Memo:          tr.Machine.Memo,
		MemoCap:       tr.Machine.MemoCap,
		MaxConcurrent: tr.Machine.MaxConcurrent,
		Obs:           ot,
	})
	for _, d := range tr.Datasets {
		if osts := c.FS().Params().NumOSTs; d.StripeCount < 1 || d.StripeCount > osts {
			return nil, fmt.Errorf("workload: dataset %q: stripe count %d outside 1..%d OSTs", d.Name, d.StripeCount, osts)
		}
		ds, _, err := newDataset3D(c, d)
		if err != nil {
			return nil, fmt.Errorf("workload: provisioning dataset %q: %w", d.Name, err)
		}
		c.RegisterDataset(d.Name, ds)
	}
	return c, nil
}

// Submitted pairs one trace submission with its scheduler result.
type Submitted struct {
	Sub *Submission
	Res *cluster.CCResult
}

// SubmitAll queues every job of the trace on c through one session per
// tenant (sessions are created in first-appearance order, which is part of
// the deterministic contract): a job at T = 0 with Session.SubmitCC, into
// the batch the run starts from, and any other at its arrival time T with
// Session.SubmitCCAt. Call before c.Run.
func SubmitAll(c *cluster.Cluster, tr *Trace) ([]Submitted, error) {
	sessions := make(map[string]*cluster.Session)
	out := make([]Submitted, 0, len(tr.Jobs))
	for i := range tr.Jobs {
		s := &tr.Jobs[i]
		op, err := OpByCode(s.Op)
		if err != nil {
			return nil, err
		}
		sess := sessions[s.Tenant]
		if sess == nil {
			sess = c.Session(s.Tenant)
			sessions[s.Tenant] = sess
		}
		j := cluster.CCJob{
			Name:       s.Name,
			Ranks:      s.Ranks,
			Deadline:   s.Deadline,
			Priority:   s.Priority,
			EstCost:    s.EstCost,
			Class:      s.Class,
			Dataset:    s.Dataset,
			Slab:       slabOf(s),
			SplitDim:   s.SplitDim,
			Op:         op,
			Reduce:     reduceMode(s.Reduce),
			SecPerElem: s.SecPerElem,
		}
		var res *cluster.CCResult
		if s.T == 0 {
			res = sess.SubmitCC(j)
		} else {
			res = sess.SubmitCCAt(s.T, j)
		}
		out = append(out, Submitted{Sub: s, Res: res})
	}
	return out, nil
}

// Run provisions, submits, and runs a trace end to end, returning the
// per-submission results: every run of the workload experiment, generated
// or replayed (ccexp -trace-in). A job that fails for any reason but its
// deadline is an error naming the first such job, not a job served.
func Run(tr *Trace, ot *obs.Tracer) (*cluster.Cluster, []Submitted, error) {
	c, err := Provision(tr, ot)
	if err != nil {
		return nil, nil, err
	}
	subs, err := SubmitAll(c, tr)
	if err != nil {
		return nil, nil, err
	}
	if _, err := c.Run(); err != nil {
		return nil, nil, err
	}
	for i, s := range subs {
		if err := s.Res.Err; err != nil && !errors.Is(err, cluster.ErrDeadlineExpired) {
			return nil, nil, fmt.Errorf("workload: job %d (%s) failed: %w", i, s.Sub.Name, err)
		}
	}
	return c, subs, nil
}

// ClassStats is the per-SLO-class rollup of one run.
type ClassStats struct {
	Class    string
	Jobs     int
	Dropped  int // deadline-expired in queue
	Missed   int // finished past deadline
	MemoHits int
	WaitP50  float64 // queue-wait quantiles over served jobs
	WaitP99  float64
}

// Summarize rolls the results up per class, ordered by class name. A job
// that failed is counted in Jobs and nowhere else: it was neither served
// nor dropped.
func Summarize(subs []Submitted) []ClassStats {
	byClass := make(map[string]*ClassStats)
	waits := make(map[string][]float64)
	for _, s := range subs {
		cs := byClass[s.Sub.Class]
		if cs == nil {
			cs = &ClassStats{Class: s.Sub.Class}
			byClass[s.Sub.Class] = cs
		}
		cs.Jobs++
		jr := s.Res.JobResult
		switch {
		case errors.Is(jr.Err, cluster.ErrDeadlineExpired):
			cs.Dropped++
		case jr.Err != nil:
		default:
			if jr.DeadlineMiss {
				cs.Missed++
			}
			if jr.MemoHit {
				cs.MemoHits++
			}
			if w := jr.QueueWait(); w >= 0 {
				waits[s.Sub.Class] = append(waits[s.Sub.Class], w)
			}
		}
	}
	out := make([]ClassStats, 0, len(byClass))
	for class, cs := range byClass {
		cs.WaitP50 = quantile(waits[class], 0.50)
		cs.WaitP99 = quantile(waits[class], 0.99)
		out = append(out, *cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// quantile returns the q-quantile of vs (nearest-rank on a sorted copy);
// 0 for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}
