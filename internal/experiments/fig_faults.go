package experiments

import (
	"fmt"

	"repro/internal/asciichart"
	"repro/internal/fault"
	"repro/internal/pfs"
)

// FigFaults charts how collective computing degrades and recovers under
// escalating injected fault plans — the robustness regime the paper names as
// future work (§V). For each escalation level of a seeded fault.Spec it
// measures the traditional baseline, CC unmitigated, CC with read
// timeout/retry, and CC with retry plus between-round file-domain
// rebalancing, and reports the share of the fault-induced slowdown the full
// mitigation recovers. Everything runs on the virtual clock, so the table is
// byte-identical for a given seed.
func FigFaults(cfg Config) (*Table, error) {
	f, err := newFaultSweep(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "faults",
		Title: "Degradation and Recovery Under Escalating Fault Plans",
		Headers: []string{"level", "traditional (s)", "CC (s)", "CC+retry (s)",
			"CC+rebalance (s)", "recovered"},
	}
	tFree := f.free.makespan
	var barLabels []string
	var barVals []float64
	// The last level's retry+rebalance leg is kept for the note below.
	var rebal legRun
	for level := 1; level <= 3; level++ {
		var runs [4]legRun
		for i, l := range f.level(level) {
			if runs[i], err = cfg.runLeg(l); err != nil {
				return nil, err
			}
		}
		rebal = runs[3]
		tTrad, tCC, tRetry, tRebal := runs[0].makespan, runs[1].makespan, runs[2].makespan, rebal.makespan
		recovered := "n/a"
		if gap := tCC - tFree; gap > 0 {
			recovered = fmt.Sprintf("%.0f%%", 100*(tCC-tRebal)/gap)
		}
		t.AddRow(fmt.Sprintf("%d", level), secs(tTrad), secs(tCC), secs(tRetry),
			secs(tRebal), recovered)
		barLabels = append(barLabels,
			fmt.Sprintf("L%d CC", level), fmt.Sprintf("L%d mit", level))
		barVals = append(barVals, tCC, tRebal)
	}
	t.Chart = asciichart.Bars(barLabels, barVals, 48)
	t.Notef("fault-free CC reference: %.3fs; plans seeded from %d (bit-reproducible)", tFree, f.spec.Seed)
	st := rebal.stats
	t.Notef("level-3 mitigation counters: timeouts %d retries %d backoff %.3fs rebalances %d flagged %d degraded-msgs %d",
		st.IOTimeouts, st.IORetries, st.BackoffSeconds,
		st.Rebalances, st.FlaggedSlowOSTs, rebal.cl.World().Net().DegradedMessages)
	t.Notef("recovered = share of the fault-induced CC slowdown removed by retry+rebalance")
	return t, nil
}

// faultSweep is the faults experiment's sweep: the Figure 9 legs at a
// calibrated map cost, the fault-free CC run, and the seeded fault spec whose
// escalation levels are its points.
type faultSweep struct {
	trad, cc leg
	free     legRun
	spec     fault.Spec
	retry    pfs.ReadPolicy
	rounds   int
}

func newFaultSweep(cfg Config) (faultSweep, error) {
	cfg = cfg.Defaults()
	b := fig9Bench(cfg)
	if cfg.Quick {
		// Shrink the stripes with the quick buffers so the (small) accessed
		// hull still spans many OSTs — otherwise faults cannot intersect it.
		b.stripeSize = 64 << 10
	}
	var f faultSweep
	// Modest computation (ratio 1:2) so the read phase dominates but the
	// map still overlaps, as in the paper's I/O-heavy regime.
	trad, _ := b.legs("faults", 0)
	_, spe, err := cfg.calibrate(trad, b.perRankElems)
	if err != nil {
		return f, err
	}
	f.trad, f.cc = b.legs("faults", spe(0.5))
	if f.free, err = cfg.runLeg(f.cc); err != nil {
		return f, err
	}

	// Straggler handling sized to the protocol on the legs' machine: a
	// piece is at most one stripe or one collective-buffer window, so time
	// out a request at ~3x its healthy service time.
	fsp := f.free.cl.FS().Params()
	svc := fsp.OSTLatency + float64(min(b.cb, b.stripeSize))/fsp.OSTBandwidth
	f.retry = pfs.ReadPolicy{Timeout: 3 * svc, Retries: 4, Backoff: svc / 2}
	f.rounds = 4
	if cfg.Quick {
		// At toy scale the per-round replanning overhead is comparable to
		// the read itself; keep the multi-round path exercised but short.
		f.rounds = 2
	}

	// Fault sites are drawn from the OSTs the benchmark file occupies
	// (round-robin over its 40 stripes), so escalating plans genuinely
	// intersect the access instead of landing on idle storage.
	f.spec = fault.Spec{
		Seed:    1,
		NumOSTs: f.cc.stripes, NumNodes: (b.nranks + b.rpn - 1) / b.rpn, NumRanks: b.nranks,
		Stragglers: 4, StragglerFactor: 8,
		Links: 1, LinkFactor: 4, LinkJitter: 20e-6 * cfg.timeUnit, // 20 µs, in the machine's unit
		SlowRanks: 1, SlowRankFactor: 2,
		Horizon: f.free.makespan,
		// Transient episodes lasting ~0.5-1.5x the fault-free makespan: the
		// regime where timing out a request and reissuing it after recovery
		// beats riding out the degraded service. Persistent stragglers are
		// the rebalancing regime and are exercised separately in faults_test.
		DurationFrac: 1,
	}
	return f, nil
}

// level returns the legs of one escalation level, all under its plan: the
// traditional baseline, CC unmitigated, CC with read timeout/retry, and CC
// with retry plus between-round file-domain rebalancing.
func (f faultSweep) level(level int) [4]leg {
	plan := fault.Gen(fault.Escalate(f.spec, level))
	trad, ccl := f.trad, f.cc
	trad.plan, ccl.plan = plan, plan
	retry := ccl
	retry.io.Params.Read = f.retry
	rebal := retry
	rebal.io.Params.RebalanceRounds = f.rounds
	return [4]leg{trad, ccl, retry, rebal}
}
