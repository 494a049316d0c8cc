// Package wrf models the Weather Research & Forecasting outputs of the
// paper's application evaluation (§IV-C): a hurricane simulation with a
// sea-level-pressure field and a 10 m wind-speed field, plus the two
// analysis tasks the paper extracts — "Min Sea-Level Pressure (hPa)" and
// "Max 10 m wind speed (knots)". The fields are analytic (a moving
// pressure low with a Rankine-like wind ring), deterministic, and cheap, so
// the tasks' answers are verifiable against closed-form expectations.
package wrf

import (
	"fmt"
	"math"

	"repro/internal/cc"
	"repro/internal/layout"
	"repro/internal/ncfile"
	"repro/internal/pfs"
)

// Storm describes the synthetic hurricane over a (Time, Y, X) grid.
type Storm struct {
	// Grid dimensions: time steps, south-north, west-east.
	NT, NY, NX int64
	// Track: eye starts at (Y0, X0) and moves (VY, VX) cells per step.
	Y0, X0, VY, VX float64
	// CoreRadius is the radius of maximum wind in cells.
	CoreRadius float64
	// Depth is the central pressure deficit in hPa.
	Depth float64
	// MaxWind is the peak 10 m wind in knots.
	MaxWind float64
	// Deepening makes the storm intensify over time (fraction per step).
	Deepening float64
}

// DefaultStorm returns a storm sized to the given grid.
func DefaultStorm(nt, ny, nx int64) Storm {
	return Storm{
		NT: nt, NY: ny, NX: nx,
		Y0: float64(ny) * 0.2, X0: float64(nx) * 0.2,
		VY: float64(ny) * 0.6 / float64(nt), VX: float64(nx) * 0.6 / float64(nt),
		CoreRadius: float64(nx) * 0.05,
		Depth:      80, MaxWind: 120,
		Deepening: 0.5 / float64(nt),
	}
}

// eye returns the eye position at step t.
func (s *Storm) eye(t float64) (y, x float64) {
	return s.Y0 + s.VY*t, s.X0 + s.VX*t
}

// intensity is the deepening factor at step t, in (0, 1].
func (s *Storm) intensity(t float64) float64 {
	f := 0.5 + s.Deepening*t
	if f > 1 {
		f = 1
	}
	return f
}

// shape is a cheap Rankine-like radial profile: 1 at d=0 decaying smoothly,
// implemented without exp.
func shape(d2, r2 float64) float64 {
	return 1 / (1 + d2/r2)
}

// SLP is the sea-level pressure (hPa) at (t, y, x): ambient 1013 minus a
// moving low.
func (s *Storm) SLP(c []int64) float64 {
	t := float64(c[0])
	ey, ex := s.eye(t)
	dy, dx := float64(c[1])-ey, float64(c[2])-ex
	d2 := float64(dy*dy) + dx*dx
	r2 := s.CoreRadius * s.CoreRadius * 9
	return 1013 - s.Depth*s.intensity(t)*shape(d2, r2)
}

// Wind10 is the 10 m wind speed (knots) at (t, y, x): a ring of maximum
// winds at CoreRadius around the eye.
func (s *Storm) Wind10(c []int64) float64 {
	t := float64(c[0])
	ey, ex := s.eye(t)
	dy, dx := float64(c[1])-ey, float64(c[2])-ex
	d2 := float64(dy*dy) + dx*dx
	r2 := s.CoreRadius * s.CoreRadius
	// Rankine-like: v ∝ d inside the core, ∝ 1/d outside; smooth rational
	// form peaking at d = CoreRadius.
	ratio := d2 / r2
	prof := 2 * ratio / (1 + ratio*ratio)
	return s.MaxWind * s.intensity(t) * prof
}

// slpGen and windGen are the row-batched ncfile.Gen forms of Storm.SLP and
// Storm.Wind10, which stay as their oracles. What depends only on the row —
// t, the eye, dy·dy, r2, and the peak times intensity(t), left-associated as
// the scalar forms compute it — is computed once per row (slpRow, windRow);
// the per-element arithmetic, in each row type's at, keeps the scalar forms'
// grouping and order, so the values are bit-identical. Go lets a compiler
// fuse x*y+z into one rounding, even across statements (arm64 does; amd64
// does not), unless an explicit float64(…) rounds the product first. Each
// hoisted product is wrapped in one, and so is dy·dy in the scalar forms, so
// a fused build cannot fuse a product on one side and round it on the other.
// Both are ncfile.Scanners: FillRow and the scans run loops over the row that
// call its at, so each formula exists once.
type slpGen struct{ *Storm }

func (g slpGen) row(c []int64) slpRow {
	s := g.Storm
	t := float64(c[0])
	ey, ex := s.eye(t)
	dy := float64(c[1]) - ey
	return slpRow{
		ex:    ex,
		dy2:   float64(dy * dy),
		r2:    float64(s.CoreRadius * s.CoreRadius * 9),
		depth: float64(s.Depth * s.intensity(t)),
	}
}

func (g slpGen) FillRow(c []int64, out []float64) {
	r := g.row(c)
	for k := range out {
		out[k] = r.at(c[2] + int64(k))
	}
}

func (g slpGen) SumRow(c []int64, n int, acc float64) float64 {
	r := g.row(c)
	for k := 0; k < n; k++ {
		acc += ncfile.Float32Round(r.at(c[2] + int64(k)))
	}
	return acc
}

// MinRow and MaxRow find a pressure row's extremes without scanning it.
// Along a row only x moves, and each step of slpRow.at is a correctly
// rounded IEEE operation (a fused multiply-add is one too), monotone in its
// varying operand: dx = float64(x) − ex rises with x; dx·dx falls while
// dx ≤ 0 and rises while dx ≥ 0, and so do dy2 + dx·dx and its quotient by
// r2 > 0; 1 + that too; the reciprocal turns the order over, the product
// with depth ≥ 0 keeps it, and 1013 − that turns it back; Float32Round keeps
// it. So the rounded value v(x) is non-increasing for x ≤ ex and
// non-decreasing for x ≥ ex, and no value is NaN: NewDataset refuses a storm
// whose depth or r2 could break this (Storm.validate).
//
// Under the scan's rule the result is the row's extreme and the first index
// holding it, or the incoming best and -1 when the extreme does not beat it.
// The least value is at ⌊ex⌋ or ⌈ex⌉, each clamped into the row, the left
// one on a tie, and its first index is the first on the falling side that
// is no greater. The greatest is at an end, the first one on a tie. When
// the last end is greater, its first index is the first in the row that is
// no less: every value before the rising side is at most the first one.
// SumRow scans, because the order of its additions is its result.
func (g slpGen) MinRow(c []int64, n int, best float64, valid bool) (float64, int) {
	r, x0, xl := g.row(c), c[2], c[2]+int64(n)-1
	l, h := clampRow(math.Floor(r.ex), x0, xl), clampRow(math.Ceil(r.ex), x0, xl)
	m, k := r.rounded(l), l
	if v := r.rounded(h); v < m {
		m, k = v, h
	}
	if valid && !(m < best) {
		return best, -1
	}
	return m, int(r.first(x0, k, func(v float64) bool { return v <= m }) - x0)
}

func (g slpGen) MaxRow(c []int64, n int, best float64, valid bool) (float64, int) {
	r, x0, xl := g.row(c), c[2], c[2]+int64(n)-1
	m, k := r.rounded(x0), x0
	if v := r.rounded(xl); v > m {
		m, k = v, r.first(x0, xl, func(u float64) bool { return u >= v })
	}
	if valid && !(m > best) {
		return best, -1
	}
	return m, int(k - x0)
}

// clampRow is the element of the row [x0, xl] nearest f, an integral
// float64 or an infinity.
func clampRow(f float64, x0, xl int64) int64 {
	k := xl
	if f < 0x1p63 {
		k = math.MinInt64
		if f >= -0x1p63 {
			k = int64(f)
		}
	}
	return min(max(k, x0), xl)
}

// first is the least x in [lo, hi] whose rounded value meets ok, where ok is
// false and then true along [lo, hi] and true at hi.
func (r slpRow) first(lo, hi int64, ok func(float64) bool) int64 {
	for lo < hi {
		if mid := lo + (hi-lo)/2; ok(r.rounded(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// slpRow is what a row of the pressure field fixes.
type slpRow struct{ ex, dy2, r2, depth float64 }

// at is the pressure at x, the one element function of slpGen's loops.
func (r slpRow) at(x int64) float64 {
	dx := float64(x) - r.ex
	return 1013 - r.depth*shape(r.dy2+dx*dx, r.r2)
}

// rounded is at(x) as a Float32 variable stores it.
func (r slpRow) rounded(x int64) float64 { return ncfile.Float32Round(r.at(x)) }

type windGen struct{ *Storm }

func (g windGen) row(c []int64) windRow {
	s := g.Storm
	t := float64(c[0])
	ey, ex := s.eye(t)
	dy := float64(c[1]) - ey
	return windRow{
		ex:   ex,
		dy2:  float64(dy * dy),
		r2:   float64(s.CoreRadius * s.CoreRadius),
		peak: float64(s.MaxWind * s.intensity(t)),
	}
}

func (g windGen) FillRow(c []int64, out []float64) {
	r := g.row(c)
	for k := range out {
		out[k] = r.at(c[2] + int64(k))
	}
}

func (g windGen) SumRow(c []int64, n int, acc float64) float64 {
	r := g.row(c)
	for k := 0; k < n; k++ {
		acc += ncfile.Float32Round(r.at(c[2] + int64(k)))
	}
	return acc
}

func (g windGen) MinRow(c []int64, n int, best float64, valid bool) (float64, int) {
	r, at := g.row(c), -1
	for k := 0; k < n; k++ {
		if v := ncfile.Float32Round(r.at(c[2] + int64(k))); v < best || !valid {
			best, valid, at = v, true, k
		}
	}
	return best, at
}

func (g windGen) MaxRow(c []int64, n int, best float64, valid bool) (float64, int) {
	r, at := g.row(c), -1
	for k := 0; k < n; k++ {
		if v := ncfile.Float32Round(r.at(c[2] + int64(k))); v > best || !valid {
			best, valid, at = v, true, k
		}
	}
	return best, at
}

// windRow is what a row of the wind field fixes.
type windRow struct{ ex, dy2, r2, peak float64 }

// at is the wind speed at x, the one element function of windGen's loops.
func (r windRow) at(x int64) float64 {
	dx := float64(x) - r.ex
	ratio := (r.dy2 + dx*dx) / r.r2
	prof := 2 * ratio / (1 + ratio*ratio)
	return r.peak * prof
}

// Dataset holds an open WRF-like output file.
type Dataset struct {
	DS      *ncfile.Dataset
	SLPVar  int
	WindVar int
	Storm   Storm
}

// validate refuses a storm whose pressure rows might not fall and then rise
// (see slpGen.MinRow): the track must be finite, CoreRadius make
// r2 = CoreRadius²·9 positive and finite, and Depth and Deepening be finite
// and not negative, which keeps intensity in [0.5, 1] and depth ≥ 0.
func (s *Storm) validate() error {
	for _, f := range []struct {
		name string
		v    float64
		min  float64
	}{{"Y0", s.Y0, math.Inf(-1)}, {"X0", s.X0, math.Inf(-1)}, {"VY", s.VY, math.Inf(-1)}, {"VX", s.VX, math.Inf(-1)},
		{"Depth", s.Depth, 0}, {"Deepening", s.Deepening, 0}} {
		if !(f.v >= f.min) || math.IsInf(f.v, 0) {
			return fmt.Errorf("wrf: Storm.%s %v", f.name, f.v)
		}
	}
	if r2 := s.CoreRadius * s.CoreRadius * 9; !(r2 > 0) || math.IsInf(r2, 0) {
		return fmt.Errorf("wrf: Storm.CoreRadius %v", s.CoreRadius)
	}
	return nil
}

// NewDataset creates the synthetic WRF output with "slp" and "wind10"
// float32 variables of shape (NT, NY, NX).
func NewDataset(fs *pfs.FS, storm Storm, stripeCount int, stripeSize int64) (*Dataset, error) {
	if err := storm.validate(); err != nil {
		return nil, err
	}
	dims := []int64{storm.NT, storm.NY, storm.NX}
	var s ncfile.Schema
	slp, err := s.AddVar("slp", ncfile.Float32, dims)
	if err != nil {
		return nil, err
	}
	wind, err := s.AddVar("wind10", ncfile.Float32, dims)
	if err != nil {
		return nil, err
	}
	ds, err := ncfile.SynthDatasetGen(fs, "wrfout", &s,
		[]ncfile.Gen{slpGen{&storm}, windGen{&storm}}, stripeCount, stripeSize, 0)
	if err != nil {
		return nil, err
	}
	return &Dataset{DS: ds, SLPVar: slp, WindVar: wind, Storm: storm}, nil
}

// Task is one of the paper's WRF analysis tasks.
type Task struct {
	Name  string
	VarID int
	Op    cc.Op
}

// MinSLPTask is the "Min Sea-Level Pressure (hPa)" analysis.
func (d *Dataset) MinSLPTask() Task {
	return Task{Name: "Min Sea-Level Pressure (hPa)", VarID: d.SLPVar, Op: cc.MinLoc{}}
}

// MaxWindTask is the "Max 10m wind speed (knots)" analysis.
func (d *Dataset) MaxWindTask() Task {
	return Task{Name: "Max 10m wind speed (knots)", VarID: d.WindVar, Op: cc.MaxLoc{}}
}

// FullSlab selects the entire grid.
func (d *Dataset) FullSlab() layout.Slab {
	v, _ := d.DS.Var(d.SLPVar)
	return layout.Slab{Start: make([]int64, 3), Count: append([]int64(nil), v.Dims...)}
}
