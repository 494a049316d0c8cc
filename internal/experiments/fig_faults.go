package experiments

import (
	"fmt"

	"repro/internal/asciichart"
	"repro/internal/cc"
	"repro/internal/cluster"
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
	cfg = cfg.Defaults()
	s := newFig9Setup(cfg)
	base := ccRunSpec{nranks: s.nranks, rpn: s.rpn, naggr: s.naggr,
		dims: s.dims, slabs: s.slabs, pipeline: true, cb: s.cb, reduce: cc.AllToOne}
	const stripeCount = 40
	if cfg.Quick {
		// Shrink the stripes with the quick buffers so the (small) accessed
		// hull still spans many OSTs — otherwise faults cannot intersect it.
		base.stripeSize = 64 << 10
	}

	// Modest computation (ratio 1:2) so the read phase dominates but the
	// map still overlaps, as in the paper's I/O-heavy regime.
	calib := base
	calib.block = true
	tIO, err := runClimate3D(calib)
	if err != nil {
		return nil, err
	}
	base.spe = 0.5 * tIO / float64(s.perRankElems)

	// Fault-free CC reference.
	tFree, err := runClimate3D(base)
	if err != nil {
		return nil, err
	}

	// Straggler handling sized to the protocol: a piece is at most one stripe
	// or one collective-buffer window, so time out a request at ~3x its
	// healthy service time.
	fsp := hopperFS().Defaults()
	stripe := base.stripeSize
	if stripe == 0 {
		stripe = 4 << 20
	}
	piece := s.cb
	if stripe < piece {
		piece = stripe
	}
	svc := fsp.OSTLatency + float64(piece)/fsp.OSTBandwidth
	retry := pfs.ReadPolicy{Timeout: 3 * svc, Retries: 4, Backoff: svc / 2}
	rounds := 4
	if cfg.Quick {
		// At toy scale the per-round replanning overhead is comparable to
		// the read itself; keep the multi-round path exercised but short.
		rounds = 2
	}

	// Fault sites are drawn from the OSTs the benchmark file occupies
	// (round-robin over stripeCount), so escalating plans genuinely
	// intersect the access instead of landing on idle storage.
	spec := fault.Spec{
		Seed:    1,
		NumOSTs: stripeCount, NumNodes: (s.nranks + s.rpn - 1) / s.rpn, NumRanks: s.nranks,
		Stragglers: 4, StragglerFactor: 8,
		Links: 1, LinkFactor: 4, LinkJitter: 20e-6,
		SlowRanks: 1, SlowRankFactor: 2,
		Horizon: tFree,
		// Transient episodes lasting ~0.5-1.5x the fault-free makespan: the
		// regime where timing out a request and reissuing it after recovery
		// beats riding out the degraded service. Persistent stragglers are
		// the rebalancing regime and are exercised separately in faults_test.
		DurationFrac: 1,
	}

	t := &Table{
		ID:    "faults",
		Title: "Degradation and Recovery Under Escalating Fault Plans",
		Headers: []string{"level", "traditional (s)", "CC (s)", "CC+retry (s)",
			"CC+rebalance (s)", "recovered"},
	}
	var barLabels []string
	var barVals []float64
	// The last level's retry+rebalance leg leaves its counters and its
	// machine here, for the note below.
	var rebalStats cc.Stats
	var rebalCl *cluster.Cluster
	for level := 1; level <= 3; level++ {
		lp := fault.Gen(fault.Escalate(spec, level))
		leg := func(block bool, read pfs.ReadPolicy, rebalance int) ccRunSpec {
			r := base
			r.block, r.plan, r.read, r.rebalance = block, lp, read, rebalance
			return r
		}
		tTrad, err := runClimate3D(leg(true, pfs.ReadPolicy{}, 0))
		if err != nil {
			return nil, err
		}
		tCC, err := runClimate3D(leg(false, pfs.ReadPolicy{}, 0))
		if err != nil {
			return nil, err
		}
		tRetry, err := runClimate3D(leg(false, retry, 0))
		if err != nil {
			return nil, err
		}
		rebal := leg(false, retry, rounds)
		rebalStats = cc.Stats{}
		rebal.stats = &rebalStats
		rebalCl = newCluster(s.nranks, s.rpn, nil)
		tRebal, err := runClimate3DOn(rebalCl, rebal)
		if err != nil {
			return nil, err
		}
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
	t.Notef("fault-free CC reference: %.3fs; plans seeded from %d (bit-reproducible)", tFree, spec.Seed)
	t.Notef("level-3 mitigation counters: timeouts %d retries %d backoff %.3fs rebalances %d flagged %d degraded-msgs %d",
		rebalStats.IOTimeouts, rebalStats.IORetries, rebalStats.BackoffSeconds,
		rebalStats.Rebalances, rebalStats.FlaggedSlowOSTs, rebalCl.World().Net().DegradedMessages)
	t.Notef("recovered = share of the fault-induced CC slowdown removed by retry+rebalance")
	return t, nil
}
