package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// This file is the scheduling-policy ablation: the same three-tenant job
// mix runs under every registered cluster policy, and the table compares
// makespan, queue-wait tail, and Jain fairness across them. Job bodies are
// pure virtual compute (no I/O, no collectives), so the ablation isolates
// the admission discipline: every difference between rows is scheduling,
// nothing else. Durations and arrivals multiply by Config.Scale, which
// leaves every ratio between policies scale-invariant.

// schedMixJob is one submission of the ablation workload.
type schedMixJob struct {
	tenant   string
	width    int
	dur      float64
	arrive   float64
	prio     int
	deadline float64
}

// schedPoliciesMix is the contended three-tenant mix, tuned so the policies
// separate: alice's wide long analyses monopolize a FIFO queue, bob's many
// narrow short queries are natural backfill, and carol's mid-width jobs
// arrive while the machine is already saturated.
func schedPoliciesMix(scale float64) []schedMixJob {
	var mix []schedMixJob
	// alice: 8 wide, long analyses submitted as one batch. Width 20 of 32:
	// two never fit together, so each leaves a 12-rank hole under FIFO.
	for i := 0; i < 8; i++ {
		mix = append(mix, schedMixJob{
			tenant: "alice", width: 20, dur: 6 * scale, prio: 0,
		})
	}
	// bob: 12 narrow, short queries, also at t=0 — behind all of alice
	// under FIFO, ideal hole-fillers under EASY backfill.
	for i := 0; i < 12; i++ {
		mix = append(mix, schedMixJob{
			tenant: "bob", width: 8, dur: 2 * scale, prio: 1,
		})
	}
	// carol: 6 mid-width jobs arriving while the machine is saturated, with
	// generous (never binding) deadlines to exercise the accounting.
	for i := 0; i < 6; i++ {
		mix = append(mix, schedMixJob{
			tenant: "carol", width: 12, dur: 3 * scale,
			arrive: float64(i+1) * 1.5 * scale, prio: 2,
			deadline: 500 * scale,
		})
	}
	return mix
}

// schedOutcome is one policy's measured row.
type schedOutcome struct {
	makespan   float64
	meanWait   float64
	p99Wait    float64
	jain       float64
	backfilled int
	drops      int
}

// jainIndex is Jain's fairness index (sum x)^2 / (n * sum x^2) over the
// per-tenant mean slowdowns: 1.0 when every tenant sees the same slowdown,
// approaching 1/n as one tenant absorbs all the queueing.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// runSchedPolicy executes the mix under one policy on a fresh machine.
func runSchedPolicy(policy string, nranks int, mix []schedMixJob, ot *obs.Tracer) (schedOutcome, error) {
	cl := cluster.New(cluster.Spec{
		Ranks: nranks, RanksPerNode: 8, Policy: policy, Obs: ot,
	})
	sessions := map[string]*cluster.Session{}
	for i, mj := range mix {
		s, ok := sessions[mj.tenant]
		if !ok {
			s = cl.Session(mj.tenant)
			sessions[mj.tenant] = s
		}
		dur := mj.dur
		j := &cluster.Job{
			Name:     fmt.Sprintf("%s-%d", mj.tenant, i),
			Ranks:    mj.width,
			Deadline: mj.deadline,
			Priority: mj.prio,
			EstCost:  dur,
			Main: func(ctx *cluster.JobContext, r *mpi.Rank) error {
				r.Compute(dur)
				return nil
			},
		}
		if mj.arrive > 0 {
			s.SubmitAt(mj.arrive, j)
		} else {
			s.Submit(j)
		}
	}
	results, err := cl.Run()
	if err != nil {
		return schedOutcome{}, fmt.Errorf("policy %s: %w", policy, err)
	}
	if err := cluster.AuditResults(results, nranks); err != nil {
		return schedOutcome{}, fmt.Errorf("policy %s: %w", policy, err)
	}

	out := schedOutcome{makespan: cl.Now(), backfilled: cl.SchedStats().Backfilled}
	var waits []float64
	slow := map[string][]float64{}
	for _, jr := range results {
		if jr.Err != nil {
			out.drops++
			continue
		}
		waits = append(waits, jr.QueueWait())
		slow[jr.Job.Name[:strings.IndexByte(jr.Job.Name, '-')]] =
			append(slow[jr.Job.Name[:strings.IndexByte(jr.Job.Name, '-')]],
				jr.Turnaround()/jr.Duration())
	}
	if len(waits) == 0 {
		return schedOutcome{}, fmt.Errorf("policy %s: every job dropped", policy)
	}
	for _, w := range waits {
		out.meanWait += w
	}
	out.meanWait /= float64(len(waits))
	sort.Float64s(waits)
	out.p99Wait = waits[int(math.Ceil(0.99*float64(len(waits))))-1]
	tenants := make([]string, 0, len(slow))
	for tn := range slow {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	var xs []float64
	for _, tn := range tenants {
		var m float64
		for _, s := range slow[tn] {
			m += s
		}
		xs = append(xs, m/float64(len(slow[tn])))
	}
	out.jain = jainIndex(xs)
	return out, nil
}

// SchedPolicies sweeps the scheduling-policy ablation: one contended
// three-tenant mix under fifo, easy-backfill, priority, and fairshare, with
// per-policy makespan, queue-wait tail, Jain fairness (over per-tenant mean
// slowdown), backfill count, and drops. The run fails if easy-backfill does
// not strictly beat fifo's makespan, or if any schedule violates the
// placement audit.
func SchedPolicies(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	const nranks = 32
	mix := schedPoliciesMix(cfg.Scale)

	policies := cluster.PolicyNames()
	outcomes := map[string]schedOutcome{}
	for _, pol := range policies {
		var ot *obs.Tracer
		if pol == "easy-backfill" {
			ot = cfg.Obs // trace the run whose schedule the ablation is about
		}
		o, err := runSchedPolicy(pol, nranks, mix, ot)
		if err != nil {
			return nil, err
		}
		outcomes[pol] = o
	}

	t := &Table{
		ID:    "sched-policies",
		Title: "Scheduling Policy Ablation (makespan / tail wait / fairness)",
		Headers: []string{"policy", "makespan (s)", "mean wait (s)",
			"p99 wait (s)", "jain", "backfilled", "drops"},
	}
	for _, pol := range policies {
		o := outcomes[pol]
		t.AddRow(pol, secs(o.makespan), secs(o.meanWait), secs(o.p99Wait),
			fmt.Sprintf("%.4f", o.jain), fmt.Sprintf("%d", o.backfilled),
			fmt.Sprintf("%d", o.drops))
	}

	fifo, easy, fair := outcomes["fifo"], outcomes["easy-backfill"], outcomes["fairshare"]
	if easy.makespan >= fifo.makespan {
		return nil, fmt.Errorf("sched-policies: easy-backfill makespan %.4fs did not beat fifo %.4fs",
			easy.makespan, fifo.makespan)
	}
	if easy.backfilled == 0 {
		return nil, fmt.Errorf("sched-policies: easy-backfill ran but backfilled nothing")
	}
	if easy.jain < fifo.jain {
		return nil, fmt.Errorf("sched-policies: easy-backfill jain %.4f below fifo %.4f",
			easy.jain, fifo.jain)
	}
	if fair.jain < fifo.jain {
		return nil, fmt.Errorf("sched-policies: fairshare jain %.4f below fifo %.4f",
			fair.jain, fifo.jain)
	}
	for _, pol := range policies {
		if outcomes[pol].drops != 0 {
			return nil, fmt.Errorf("sched-policies: policy %s dropped %d jobs (deadlines are never binding)",
				pol, outcomes[pol].drops)
		}
	}

	t.Notef("26 jobs, 3 tenants on %d ranks: alice 8x(w20,%.1fs), bob 12x(w8,%.1fs), carol 6x(w12,%.1fs staggered)",
		nranks, 6*cfg.Scale, 2*cfg.Scale, 3*cfg.Scale)
	t.Notef("easy-backfill cut makespan %.4fs -> %.4fs (%.2fx) with %d backfills and no reserved-head delay",
		fifo.makespan, easy.makespan, fifo.makespan/easy.makespan, easy.backfilled)
	t.Notef("fairness (jain over per-tenant mean slowdown): fifo %.4f, easy-backfill %.4f, priority %.4f, fairshare %.4f",
		fifo.jain, easy.jain, outcomes["priority"].jain, fair.jain)
	t.Notef("every schedule passed the placement audit (no double-booked ranks)")
	return t, nil
}
