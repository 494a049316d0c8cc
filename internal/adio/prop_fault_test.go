package adio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/layout"
)

// faultReadCase expands seed into a read scenario under a generated fault
// plan: arbitrary access patterns, protocol knobs and retry policies over
// straggling OSTs, degraded links with jitter, and slow ranks.
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
		rc.p.ReadTimeout = 1e-4 * (1 + rng.Float64())
		rc.p.ReadRetries = rng.Intn(4)
		rc.p.ReadBackoff = 1e-4 * rng.Float64()
	}
	return rc
}

// faultSeeds is the seed schedule of the fault properties.
func faultSeeds() *quick.Config {
	return &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(20260805))}
}

// TestCollectiveReadFaultProperty is the data-integrity property of the fault
// subsystem: for arbitrary access patterns, protocol knobs, retry policies,
// and generated fault plans, a collective read returns exactly the backend's
// bytes. Faults and mitigation may only ever change *timing*.
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
