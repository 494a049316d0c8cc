// Deterministic samplers for the generative workload plane. Every draw here
// is seed-addressed and sequential: the same (seed, call sequence) produces
// the same draws on every run, which is what lets a generated stream be
// regenerated instead of stored. No math/rand — the stream layout is part of
// the repro.workload.v1 contract and must not drift with the standard
// library.
package workload

import (
	"math"

	"repro/internal/host"
)

// rng is a splitmix64 generator: tiny state, full 64-bit period per seed,
// and a closed-form jump (the state is just a counter), which makes
// per-cohort substreams trivial to derive without correlation.
type rng struct{ state uint64 }

// newRNG derives an independent substream for one cohort: the cohort index
// is folded into the seed through one splitmix64 round so adjacent seeds or
// adjacent cohorts never see overlapping sequences.
func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{state: seed ^ (0x9e3779b97f4a7c15 * (stream + 1))}
	r.next() // decorrelate the fold itself
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1) with 53 random bits.
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// float64Open returns a uniform draw in (0, 1), safe to pass to math.Log.
func (r *rng) float64Open() float64 {
	for {
		u := r.float64()
		if u > 0 {
			return u
		}
	}
}

// exp returns a unit-mean exponential draw (inverse CDF).
func (r *rng) exp() float64 {
	return -math.Log(r.float64Open())
}

// normal returns a standard normal draw via Box-Muller. The second value of
// each pair is discarded — wasteful but stateless, so a draw's result never
// depends on whether a previous caller cached a spare.
func (r *rng) normal() float64 {
	u := r.float64Open()
	v := r.float64Open()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// gamma returns a draw from Gamma(shape k, scale 1) by Marsaglia–Tsang
// squeeze, with the standard U^(1/k) boost for k < 1.
func (r *rng) gamma(k float64) float64 {
	if k < 1 {
		return r.gamma(k+1) * math.Pow(r.float64Open(), 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// weibull returns a draw from Weibull(shape k, scale 1) (inverse CDF).
func (r *rng) weibull(k float64) float64 {
	return math.Pow(-math.Log(r.float64Open()), 1/k)
}

// zipf is a finite Zipf sampler over {0..n-1} with weight 1/(i+1)^s,
// sampled by binary search over the precomputed CDF — O(log n) per draw and
// exactly reproducible (no rejection steps whose acceptance could drift).
type zipf struct {
	cdf []float64 // cumulative weights; cdf[n-1] is the total mass
}

// zipfBlock is the number of weights one host worker computes per claim.
const zipfBlock = 1 << 12

// newZipf builds the table in two passes over one slice: the weights
// 1/(i+1)^s, a block of zipfBlock indices to a call, on the host workers
// (inline below host.Grain), then their running sum, serially in index
// order, in place. Each weight is the same pure call whichever worker makes
// it and the additions are made in the order of the one-pass loop, so the
// table is that loop's, bit for bit, at any GOMAXPROCS. (A prefix summed
// block by block and then offset would reassociate the additions.)
func newZipf(n int, s float64) *zipf {
	if n <= 0 {
		panic("workload: zipf over empty domain")
	}
	cdf := make([]float64, n)
	var p host.Pool[struct{}]
	p.Run((n+zipfBlock-1)/zipfBlock, int64(n), func(_ *struct{}, b int) {
		for i := b * zipfBlock; i < min(n, (b+1)*zipfBlock); i++ {
			cdf[i] = math.Pow(float64(i+1), -s)
		}
	})
	for i := 1; i < n; i++ {
		cdf[i] += cdf[i-1]
	}
	return &zipf{cdf: cdf}
}

// draw samples one index using r.
func (z *zipf) draw(r *rng) int {
	target := r.float64() * z.cdf[len(z.cdf)-1]
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
