package adio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/pfs"
)

// faultReadCase expands seed into a read scenario under a generated fault
// plan: arbitrary access patterns, protocol knobs, retry policies and one to
// four rebalanced rounds over straggling OSTs, degraded links with jitter,
// and slow ranks.
func faultReadCase(seed int64) *readCase {
	rng := rand.New(rand.NewSource(seed))
	rc := &readCase{n: 2 + rng.Intn(6), fileSize: 1 << 16}
	rc.stripeSize = int64(1 << (9 + rng.Intn(4))) // 512 B .. 4 KB
	rc.rpn = 1 + rng.Intn(4)
	rc.faults = &fault.Spec{
		Seed:    seed,
		NumOSTs: 8, NumRanks: rc.n,
		Stragglers: rng.Intn(4), StragglerFactor: 2 + 14*rng.Float64(),
		Links: rng.Intn(3), LinkFactor: 2 + 6*rng.Float64(),
		LinkJitter: 100e-6 * rng.Float64(),
		SlowRanks:  rng.Intn(2), SlowRankFactor: 1 + 3*rng.Float64(),
		Horizon: 0.05,
	}
	rc.perRank = make([][]layout.Run, rc.n)
	for i := range rc.perRank {
		rc.perRank[i] = randRuns(rng, rc.fileSize, 6)
	}
	if rng.Intn(2) == 0 {
		rc.aggrs = SpreadAggregators(rc.n, 1+rng.Intn(rc.n))
	}
	rc.p = Params{
		CB:       int64(1 << (8 + rng.Intn(5))),
		Pipeline: rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		rc.p.Read = pfs.ReadPolicy{
			Timeout: 1e-4 * (1 + rng.Float64()),
			Retries: rng.Intn(4),
			Backoff: 1e-4 * rng.Float64(),
		}
	}
	// Drawn last, so the scenarios above are the ones single-round reads had.
	rc.p.RebalanceRounds = 1 + rng.Intn(4)
	return rc
}

// faultSeeds is the seed schedule of the fault properties.
func faultSeeds() *quick.Config {
	return &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(20260805))}
}

// TestCollectiveReadFaultProperty is the data-integrity property of the fault
// subsystem: for arbitrary access patterns, protocol knobs, retry policies,
// round counts and generated fault plans, a collective read returns exactly
// the backend's bytes. Faults and straggler handling may only ever change
// *timing*.
func TestCollectiveReadFaultProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rc := faultReadCase(seed)
		out, err := rc.run(false, false)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := range rc.perRank {
			if want := wantBuf(rc.perRank[i]); !bytes.Equal(out.bufs[i], want) {
				t.Logf("seed %d: rank %d buffer mismatch (%d bytes)", seed, i, len(out.bufs[i]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, faultSeeds()); err != nil {
		t.Fatal(err)
	}
}

// TestRebalancedReadStoredBytes is the stored-byte twin of the banded read: a
// plain request's buffer is filled band by band, each band through its own
// stretch of it. Over a MemBackend holding the pattern, with OST 0
// straggling throughout so it is flagged after the first band and every
// later band gets a health-weighted plan, a read in one to four rounds,
// blocking and pipelined, fills every rank's buffer with exactly the bytes
// of the healthy single-round read; and a charge-only request is charged
// what the buffered one is, to the byte of the event log.
func TestRebalancedReadStoredBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := readCase{n: 6, rpn: 2, fileSize: 1 << 15, stripeSize: 1 << 10, mem: true,
		perRank: make([][]layout.Run, 6)}
	for i := range base.perRank {
		base.perRank[i] = randRuns(rng, base.fileSize, 8)
	}
	healthy := base
	healthy.p = Params{CB: 1 << 10}
	ref, err := healthy.run(false, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range ref.bufs {
		if !bytes.Equal(b, wantBuf(base.perRank[i])) {
			t.Fatalf("healthy single-round read: rank %d read wrong bytes", i)
		}
	}
	for _, rounds := range []int{1, 2, 3, 4} {
		for _, pipeline := range []bool{false, true} {
			rc := base
			rc.straggler = true
			rc.p = Params{CB: 1 << 10, Pipeline: pipeline, RebalanceRounds: rounds}
			name := fmt.Sprintf("rounds=%d/pipeline=%v", rounds, pipeline)
			full, err := rc.run(false, false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, b := range full.bufs {
				if !bytes.Equal(b, ref.bufs[i]) {
					t.Errorf("%s: rank %d buffer differs from the healthy single-round read", name, i)
				}
			}
			if weighted := full.rebalances > 0; weighted != (rounds > 1) {
				t.Errorf("%s: %d health-weighted plans built", name, full.rebalances)
			}
			charged, err := rc.run(false, true)
			if err != nil {
				t.Fatalf("%s charge-only: %v", name, err)
			}
			if d := full.costDiff(charged); d != "" {
				t.Errorf("%s: materialised vs charge-only: %s", name, d)
			}
			if charged.rebalances != full.rebalances {
				t.Errorf("%s: charge-only built %d weighted plans, materialised %d", name, charged.rebalances, full.rebalances)
			}
		}
	}
}
