package adio

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// sortOraclePlan is the reference plan builder fillIters must match field for
// field: a shell with one prefix array per owner, the domains that partition
// (the production partitioner, which the two builders share), then per
// aggregator a layout.Window copy of every owner's runs, a fragment list of
// those windows split at the collective-buffer grid, and a sort of the
// fragments by (iteration, owner, offset).
func sortOraclePlan(reqs [][]layout.Run, aggrs []int, cb int64, partition func(dst []Domain, lo, hi int64)) *Plan {
	pl := &Plan{Aggrs: append([]int(nil), aggrs...), CB: cb, reqs: reqs,
		aggIdx: make(map[int]int, len(aggrs))}
	for i, a := range pl.Aggrs {
		pl.aggIdx[a] = i
	}
	pl.prefix = make([][]int64, len(reqs))
	for o, rs := range reqs {
		pl.runs += len(rs)
		pf := make([]int64, len(rs)+1)
		for i, r := range rs {
			pf[i+1] = pf[i] + r.Length
		}
		pl.prefix[o] = pf
	}
	lo, hi, empty := hull(reqs)
	na := len(aggrs)
	pl.Iters = make([][]Iter, na)
	pl.Domains = make([]Domain, na)
	pl.expect = make([][]expectEntry, len(reqs))
	if empty {
		return pl
	}
	partition(pl.Domains, lo, hi)
	type frag struct {
		it    int
		owner int
		run   layout.Run
	}
	for a := 0; a < na; a++ {
		d := pl.Domains[a]
		if d.Hi <= d.Lo {
			continue
		}
		var st, en int64
		var any bool
		perOwner := make([][]layout.Run, len(reqs))
		for o, rs := range reqs {
			w := layout.Window(rs, d.Lo, d.Hi)
			perOwner[o] = w
			if len(w) == 0 {
				continue
			}
			l, h := layout.Bounds(w)
			if !any || l < st {
				st = l
			}
			if !any || h > en {
				en = h
			}
			any = true
		}
		if !any {
			continue
		}
		ntimes := int((en - st + cb - 1) / cb)
		iters := make([]Iter, ntimes)
		var frags []frag
		for o, w := range perOwner {
			for _, r := range w {
				off, end := r.Offset, r.End()
				for off < end {
					k := int((off - st) / cb)
					e := min(end, st+int64(k+1)*cb)
					frags = append(frags, frag{it: k, owner: o, run: layout.Run{Offset: off, Length: e - off}})
					off = e
				}
			}
		}
		slices.SortFunc(frags, func(x, y frag) int {
			if c := cmp.Compare(x.it, y.it); c != 0 {
				return c
			}
			if c := cmp.Compare(x.owner, y.owner); c != 0 {
				return c
			}
			return cmp.Compare(x.run.Offset, y.run.Offset)
		})
		for _, f := range frags {
			it := &iters[f.it]
			if it.Empty() {
				it.ReadLo, it.ReadHi = f.run.Offset, f.run.End()
			} else {
				it.ReadLo, it.ReadHi = min(it.ReadLo, f.run.Offset), max(it.ReadHi, f.run.End())
			}
			it.Pieces = append(it.Pieces, Piece{Owner: f.owner, Run: f.run})
		}
		pl.Iters[a] = iters
		pl.MaxIters = max(pl.MaxIters, ntimes)
		for k := range iters {
			prevOwner := -1
			for _, pc := range iters[k].Pieces {
				if pc.Owner != prevOwner {
					pl.expect[pc.Owner] = append(pl.expect[pc.Owner], expectEntry{It: k, Aggr: a})
					prevOwner = pc.Owner
				}
			}
		}
	}
	for o := range pl.expect {
		slices.SortFunc(pl.expect[o], func(x, y expectEntry) int {
			if c := cmp.Compare(x.It, y.It); c != 0 {
				return c
			}
			return cmp.Compare(x.Aggr, y.Aggr)
		})
	}
	return pl
}

// edgyRuns generates sorted disjoint runs within [0, fileSize) that are often
// adjacent (a zero gap, so the list is not coalesced) and often one byte long.
func edgyRuns(rng *rand.Rand, fileSize int64, maxRuns int) []layout.Run {
	var runs []layout.Run
	pos := int64(rng.Intn(8))
	for i := rng.Intn(maxRuns + 1); i > 0 && pos < fileSize; i-- {
		length := int64(1)
		if rng.Intn(3) > 0 {
			length += rng.Int63n(fileSize/int64(maxRuns+1) + 1)
		}
		length = min(length, fileSize-pos)
		runs = append(runs, layout.Run{Offset: pos, Length: length})
		pos += length
		if rng.Intn(3) > 0 {
			pos += 1 + rng.Int63n(fileSize/int64(2*maxRuns+2)+1)
		}
	}
	return runs
}

// randomPlanInputs draws one plan's requests and aggregators: 1-64 owners,
// about one in five with no runs at all, and 1 to 2x-owners aggregators, so
// that hulls smaller than the aggregator count leave empty domains.
func randomPlanInputs(rng *rand.Rand, fileSize int64) ([][]layout.Run, []int) {
	n := 1 + rng.Intn(64)
	reqs := make([][]layout.Run, n)
	for o := range reqs {
		if rng.Intn(5) > 0 {
			reqs[o] = edgyRuns(rng, fileSize, 1+rng.Intn(24))
		}
	}
	return reqs, SpreadAggregators(n, 1+rng.Intn(2*n))
}

// stragglingFile returns a file on a machine whose OST 0 serves 8x slower,
// and a health record that has seen it and flags it slow.
func stragglingFile(t *testing.T, fileSize, stripe int64) (*pfs.File, *pfs.Health) {
	t.Helper()
	env := sim.NewEnv()
	fs := pfs.New(env, pfs.Params{NumOSTs: 8, DefaultStripeSize: stripe})
	f := fs.Create("data", pfs.NewSynthBackend(fileSize, pattern), 8, stripe, 0)
	fs.SlowOST(0, 8)
	env.Spawn("probe", func(p *sim.Proc) {
		fs.Client(p, 0, nil).ChargeRead(f, 0, fileSize)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	h := fs.Health()
	if len(h.Flagged(slowFactor)) == 0 {
		t.Fatal("the straggling OST is not flagged")
	}
	return f, h
}

// TestBuildPlanMatchesSortOracle: the counting builder produces the sort
// oracle's plan, every field of it — domains, iterations (extents and piece
// order), iteration count, expect index, prefix sums and aggregator index —
// over random requests with empty owners, adjacent and one-byte runs,
// collective buffers that do not divide the domains, unaligned and
// stripe-aligned domains, empty domains and health-weighted domains; and the
// band windows a rebalanced read cuts once per round are each owner's
// layout.Window.
func TestBuildPlanMatchesSortOracle(t *testing.T) {
	const fileSize, stripe = 1 << 14, 1 << 9
	f, health := stragglingFile(t, fileSize, stripe)
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 400; i++ {
		reqs, aggrs := randomPlanInputs(rng, fileSize)
		cb := 1 + rng.Int63n(fileSize/4)
		align := []int64{0, stripe}[rng.Intn(2)]
		name := fmt.Sprintf("case %d (%d owners, %d aggregators, cb %d, align %d)", i, len(reqs), len(aggrs), cb, align)
		got := BuildPlan(reqs, aggrs, cb, align)
		want := sortOraclePlan(reqs, aggrs, cb, func(dst []Domain, lo, hi int64) { evenDomains(dst, lo, hi, align) })
		comparePlans(t, name, got, want)

		got = buildPlanWeighted(reqs, aggrs, cb, stripe, f, health)
		want = sortOraclePlan(reqs, aggrs, cb, func(dst []Domain, lo, hi int64) { weightedDomains(dst, lo, hi, stripe, f, health) })
		comparePlans(t, name+" weighted", got, want)

		blo := rng.Int63n(fileSize)
		bhi := blo + 1 + rng.Int63n(fileSize-blo)
		bands := bandWindows(reqs, blo, bhi)
		for o, rs := range reqs {
			if w := layout.Window(rs, blo, bhi); !reflect.DeepEqual(bands[o], w) {
				t.Fatalf("%s: owner %d's band [%d, %d) is %v, want %v", name, o, blo, bhi, bands[o], w)
			}
		}
	}
}

// comparePlans fails the test at the first field in which got and want differ.
func comparePlans(t *testing.T, name string, got, want *Plan) {
	t.Helper()
	for _, fc := range []struct {
		field     string
		got, want any
	}{
		{"Domains", got.Domains, want.Domains},
		{"MaxIters", got.MaxIters, want.MaxIters},
		{"Iters", got.Iters, want.Iters},
		{"expect", got.expect, want.expect},
		{"prefix", got.prefix, want.prefix},
		{"aggIdx", got.aggIdx, want.aggIdx},
	} {
		if !reflect.DeepEqual(fc.got, fc.want) {
			t.Fatalf("%s: %s differs:\n got %v\nwant %v", name, fc.field, fc.got, fc.want)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: plans differ", name)
	}
}

// TestRebalancedRoundPlansMatchSortOracle: in a three-round read on a machine
// with a straggling OST, each round's shared plan holds every owner's
// layout.Window of its request over the round's band, and is the oracle's
// plan of those windows: even domains in the first round, health-weighted
// ones once the straggler is flagged.
func TestRebalancedRoundPlansMatchSortOracle(t *testing.T) {
	const n, fileSize, stripe, rounds = 12, 1 << 15, 1 << 10, 3
	rng := rand.New(rand.NewSource(7))
	perRank := make([][]layout.Run, n)
	for i := range perRank {
		perRank[i] = edgyRuns(rng, fileSize, 16)
	}
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 4})
	fs := pfs.New(env, pfs.Params{NumOSTs: 8, DefaultStripeSize: stripe})
	f := fs.Create("data", pfs.NewSynthBackend(fileSize, pattern), 8, stripe, 0)
	fs.SlowOST(0, 8)
	cache := &PlanCache{}
	p := Params{CB: 3000, RebalanceRounds: rounds, PlanCache: cache}
	aggrs := []int{0, 4, 8}
	c := w.Comm()
	errs := make([]error, n)
	w.Go(func(r *mpi.Rank) {
		rq := Request{Runs: perRank[r.Rank()], ChargeOnly: true}
		errs[r.Rank()] = CollectiveRead(r, c, fs.Client(r.Proc(), r.Rank(), nil), f, rq, aggrs, p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	health := fs.Health()
	lo, hi, _ := hull(perRank)
	band := (hi - lo + rounds - 1) / rounds
	band += (stripe - band%stripe) % stripe
	weighted := 0
	for j := 0; j < rounds; j++ {
		plans := cache.RoundPlans(j)
		if len(plans) != 1 {
			t.Fatalf("round %d: %d plans cached, want 1", j, len(plans))
		}
		blo := lo + int64(j)*band
		bhi := min(blo+band, hi)
		windows := make([][]layout.Run, n)
		for o, rs := range perRank {
			windows[o] = layout.Window(rs, blo, bhi)
		}
		if !reflect.DeepEqual(plans[0].reqs, windows) {
			t.Fatalf("round %d: band windows %v, want %v", j, plans[0].reqs, windows)
		}
		partition := func(dst []Domain, lo, hi int64) { evenDomains(dst, lo, hi, stripe) }
		if j > 0 && len(health.Flagged(slowFactor)) > 0 {
			weighted++
			partition = func(dst []Domain, lo, hi int64) { weightedDomains(dst, lo, hi, stripe, f, health) }
		}
		comparePlans(t, fmt.Sprintf("round %d", j), plans[0], sortOraclePlan(windows, aggrs, p.CB, partition))
	}
	if weighted == 0 {
		t.Fatal("no round was planned around the straggler")
	}
}
