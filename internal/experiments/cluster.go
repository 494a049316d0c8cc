package experiments

import "repro/internal/obs"

// Config scopes the experiments. The paper's runs moved hundreds of GB on a
// Cray; Scale shrinks the *real* data volume streamed through the simulator
// while keeping every protocol decision (aggregator counts, buffer sizes,
// process counts, iteration structure) at paper values. EXPERIMENTS.md
// documents the scaling per experiment.
type Config struct {
	// Scale multiplies each experiment's data volume. 1.0 is paper scale;
	// the default (0 value) is 0.1 for interactive runs.
	Scale float64
	// Quick shrinks process counts as well, for unit tests and smoke runs.
	Quick bool
	// Memo enables the cluster's cross-job result cache and read coalescer
	// (cluster.Spec.Memo) on experiment machines. The multiuser experiment
	// measures both settings explicitly and ignores this; for the other
	// cluster experiments it is a pass-through ablation knob (their job
	// windows are distinct, so results are unchanged).
	Memo bool
	// Obs, when non-nil, is installed on the one measured cluster of the
	// experiments that trace a run — the profiled read of fig1-fig3, the
	// concurrent run of jobs, the traced policy of sched-policies, the warm
	// run of multiuser, the base stream of workload, and the runs explain and
	// profile-jobs fold — so `ccexp -trace` can export spans and metrics.
	// table1, fig9-fig13, faults and report sweep many machines and install
	// it on none. Nil disables tracing.
	Obs *obs.Tracer
	// Policy selects the cluster scheduling policy (cluster.Spec.Policy) for
	// the queued-workload experiments (jobs, multiuser use it on their
	// shared machines); "" keeps the default fifo. The sched-policies
	// experiment ignores it — it sweeps every registered policy.
	Policy string
	// ExplainJob selects the job the explain experiment attributes: the
	// submission index (seq) of the job, or a negative value (the zero-value
	// Config uses 0, so ccexp passes -1 explicitly) to auto-pick the job with
	// the longest queue wait under the factual policy.
	ExplainJob int
	// ExplainPolicies is the comma-separated policy set the explain
	// experiment replays the recorded submission stream under. The first
	// entry is the factual policy (must reproduce the recorded schedule
	// byte-identically); the rest are counterfactuals. "" means
	// "fifo,easy-backfill".
	ExplainPolicies string
	// WorkloadSpec tweaks the workload experiment's generated stream, as a
	// comma-separated "key=value" list: jobs=<n> (cap the stream and widen
	// the horizon to fit), rate=<mul> (arrival-rate multiplier), rates=<m1;
	// m2;...> (sweep multipliers), horizon=<s>, seed=<n>, policy=<name>.
	// "" keeps the defaults.
	WorkloadSpec string
	// WorkloadTraceOut, when set, makes the workload experiment record its
	// generated stream to this repro.workload.v1 file and run only the base
	// rate. WorkloadTraceIn replays a recorded stream instead of
	// generating; the two are mutually exclusive.
	WorkloadTraceOut, WorkloadTraceIn string
	// ReportIn points the report experiment at a recorded repro.events.v1
	// log (with any interleaved decision records); ReportSeriesIn adds an
	// optional repro.series.v1 log. With ReportIn empty the experiment
	// reports on a self-demo workload run, folded as it runs.
	ReportIn, ReportSeriesIn string

	// timeUnit is the unit the figures' machines count virtual time in
	// (cluster.Spec.TimeUnit), and the figures' own time inputs with them;
	// 0 means 1. observe, when set, sees every leg runLeg ran. Only the
	// time-scale invariance test sets either.
	timeUnit float64
	observe  func(leg, legRun)
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.timeUnit == 0 {
		c.timeUnit = 1
	}
	return c
}
