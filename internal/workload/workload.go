// Package workload is the generative multi-tenant workload plane: it turns a
// compact statistical spec — client cohorts with renewal-process arrivals,
// diurnal rate envelopes, zipfian dataset/window popularity, mixed job
// shapes and SLO classes — into a concrete, seed-deterministic stream of
// timestamped CC job submissions, in the style of trace-calibrated load
// generators (ServeGen and kin). A generated (or hand-built) stream can be
// persisted as a versioned repro.workload.v1 trace (trace.go) and replayed
// byte-identically through the cluster scheduler (apply.go), so "the
// workload" becomes a first-class, diffable experiment input instead of
// whatever a benchmark's inline loop happened to do.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cc"
)

// Machine describes the cluster a stream was generated for. It rides along
// in the trace header so a replay reconstructs the same machine without
// out-of-band flags.
type Machine struct {
	Ranks         int
	RanksPerNode  int
	Policy        string // "" = fifo
	Memo          bool
	MemoCap       int
	MaxConcurrent int
}

// DatasetSpec describes one synthetic 3-D climate dataset (time × lat × lon,
// float32) the stream's jobs scan. Like Machine it is part of the trace, so
// replay provisions identical storage.
type DatasetSpec struct {
	Name        string
	Dims        []int64 // 3 dims, slowest (time) first
	StripeCount int
	StripeSize  int64
}

// EnvelopeTerm is one sinusoidal component of a rate envelope.
type EnvelopeTerm struct {
	Period float64 // virtual seconds per cycle
	Amp    float64 // multiplier amplitude
	Phase  float64 // radians
}

// Envelope is a multi-period rate modulation: the instantaneous rate
// multiplier at time t is 1 + Σ Amp·sin(2πt/Period + Phase), floored at
// 0.05 so the process never stalls. An empty envelope is constant 1.
type Envelope []EnvelopeTerm

// At evaluates the envelope's rate multiplier at virtual time t.
func (e Envelope) At(t float64) float64 {
	v := 1.0
	for _, term := range e {
		v += term.Amp * math.Sin(2*math.Pi*t/term.Period+term.Phase)
	}
	if v < 0.05 {
		v = 0.05
	}
	return v
}

// Cohort is one client population sharing an arrival process and a job-shape
// distribution. Arrivals are modeled as the cohort's aggregate renewal
// process (rate = Rate jobs/s at envelope 1), with each arrival attributed
// to a client drawn zipf-skewed across the population — a compact stand-in
// for very large client counts that preserves the per-tenant heavy-hitter
// structure multi-tenant schedulers care about.
type Cohort struct {
	Name    string
	Class   string // SLO class label carried into results ("interactive", ...)
	Clients int    // population size; tenants are Name/c<id>
	// ClientSkew is the zipf exponent attributing arrivals to clients
	// (0 = uniform; ~1 = classic heavy-hitter skew).
	ClientSkew float64

	// Dist selects the interarrival law: "poisson" (exponential),
	// "gamma" (shape Shape; <1 is burstier than Poisson), or
	// "weibull" (shape Shape). All are normalized to mean 1 and scaled by
	// the instantaneous rate.
	Dist  string
	Shape float64
	// Rate is the cohort's aggregate arrival rate (jobs per virtual second)
	// at envelope multiplier 1.
	Rate     float64
	Envelope Envelope

	// Job-shape mixture. Each arrival scans one window of one dataset:
	// dataset drawn zipf(DatasetSkew) over the spec's datasets, window
	// drawn zipf(WindowSkew) over Windows fixed slabs tiling the time
	// dimension — skew is what makes identical jobs recur and stresses the
	// memo cache realistically.
	DatasetSkew float64
	Windows     int
	WindowLen   int64 // time-dimension length of each window
	WindowSkew  float64
	Ops         []string // op codes (see OpByCode), drawn uniformly
	Ranks       []int    // rank-count choices, drawn uniformly

	// SLO shape. Deadline is drawn uniformly from [DeadlineLo, DeadlineHi]
	// seconds after submission; both 0 means no deadline.
	DeadlineLo, DeadlineHi float64
	Priority               int
	SecPerElem             float64 // per-element map cost of the analysis
}

// Spec is a complete generative workload: machine, storage, cohorts, and the
// generation horizon. Generate(spec) is a pure function of this value.
type Spec struct {
	Seed    uint64
	Horizon float64 // generate arrivals in [0, Horizon)
	// MaxJobs, when > 0, truncates the merged stream to its first MaxJobs
	// submissions (a safety cap for sweeps; truncation is by arrival order,
	// so it is deterministic too).
	MaxJobs  int
	Machine  Machine
	Datasets []DatasetSpec
	Cohorts  []Cohort
}

// Submission is one concrete timestamped job of a stream — exactly the
// information needed to build the cluster.CCJob and submit it at T. This is
// the record type of repro.workload.v1 traces.
type Submission struct {
	T          float64
	Tenant     string // session name: cohort/c<client>
	Class      string // SLO class label (from the cohort)
	Name       string // job name, unique within the stream
	Dataset    string
	Op         string // op code (see OpByCode)
	Start      []int64
	Count      []int64
	SplitDim   int
	Ranks      int
	Reduce     int // cc.ReduceMode
	Deadline   float64
	Priority   int
	EstCost    float64
	SecPerElem float64
}

// Trace is a materialized submission stream plus everything needed to replay
// it: the machine and datasets it targets. Seed is informational (0 for
// hand-built streams); replay never re-samples.
type Trace struct {
	Seed     uint64
	Machine  Machine
	Datasets []DatasetSpec
	Jobs     []Submission
}

// OpByCode decodes an operator code: any cc.OpByName name ("sum", "mean",
// "variance", ...) or "hist:<lo>:<hi>:<bins>" for a parameterized
// histogram.
func OpByCode(code string) (cc.Op, error) {
	if rest, ok := strings.CutPrefix(code, "hist:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("workload: op %q: want hist:<lo>:<hi>:<bins>", code)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		bins, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || bins <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: bad histogram op %q", code)
		}
		if math.IsInf(hi-lo, 0) || math.IsNaN(hi-lo) {
			return nil, fmt.Errorf("workload: histogram op %q: bounds must be finite, and so must their distance", code)
		}
		return cc.Histogram{Lo: lo, Hi: hi, Bins: bins}, nil
	}
	return cc.OpByName(code)
}

// meanInterarrival returns the mean of one unnormalized draw from the
// cohort's interarrival law, used to normalize draws to mean 1.
func (c *Cohort) meanInterarrival() (float64, error) {
	switch c.Dist {
	case "", "poisson":
		return 1, nil
	case "gamma":
		if c.Shape <= 0 {
			return 0, fmt.Errorf("workload: cohort %q: gamma needs Shape > 0", c.Name)
		}
		return c.Shape, nil // Gamma(k, scale 1) has mean k
	case "weibull":
		if c.Shape <= 0 {
			return 0, fmt.Errorf("workload: cohort %q: weibull needs Shape > 0", c.Name)
		}
		return math.Gamma(1 + 1/c.Shape), nil
	}
	return 0, fmt.Errorf("workload: cohort %q: unknown Dist %q", c.Name, c.Dist)
}

// drawInterarrival samples one unnormalized interarrival.
func (c *Cohort) drawInterarrival(r *rng) float64 {
	switch c.Dist {
	case "gamma":
		return r.gamma(c.Shape)
	case "weibull":
		return r.weibull(c.Shape)
	default: // poisson
		return r.exp()
	}
}

// validate rejects specs Generate cannot honor, with errors naming the
// offending cohort so a mis-typed -workload string fails loudly.
func (s *Spec) validate() error {
	if s.Machine.Ranks <= 0 {
		return fmt.Errorf("workload: machine needs Ranks > 0")
	}
	// A NaN passes every ordered test, and a NaN or infinite Horizon would
	// never end the arrival loop.
	if !finite(s.Horizon) || s.Horizon <= 0 {
		return fmt.Errorf("workload: Horizon must be finite and > 0, got %v", s.Horizon)
	}
	if len(s.Datasets) == 0 || len(s.Cohorts) == 0 {
		return fmt.Errorf("workload: need at least one dataset and one cohort")
	}
	for _, d := range s.Datasets {
		if len(d.Dims) != 3 {
			return fmt.Errorf("workload: dataset %q: want 3 dims, got %d", d.Name, len(d.Dims))
		}
	}
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.Name == "" || strings.ContainsAny(c.Name, "/ \t") {
			return fmt.Errorf("workload: cohort %d: bad name %q", i, c.Name)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"Rate", c.Rate}, {"Shape", c.Shape}, {"ClientSkew", c.ClientSkew},
			{"DatasetSkew", c.DatasetSkew}, {"WindowSkew", c.WindowSkew},
			{"DeadlineLo", c.DeadlineLo}, {"DeadlineHi", c.DeadlineHi}, {"SecPerElem", c.SecPerElem},
		} {
			if !finite(f.v) {
				return fmt.Errorf("workload: cohort %q: %s must be finite, got %v", c.Name, f.name, f.v)
			}
		}
		for j, term := range c.Envelope {
			if !finite(term.Period) || !finite(term.Amp) || !finite(term.Phase) || term.Period <= 0 {
				return fmt.Errorf("workload: cohort %q: envelope term %d %+v: want finite terms and Period > 0",
					c.Name, j, term)
			}
		}
		if c.Clients <= 0 || c.Rate <= 0 || c.Windows <= 0 || c.WindowLen <= 0 {
			return fmt.Errorf("workload: cohort %q: Clients, Rate, Windows, WindowLen must be > 0", c.Name)
		}
		if len(c.Ops) == 0 || len(c.Ranks) == 0 {
			return fmt.Errorf("workload: cohort %q: need Ops and Ranks choices", c.Name)
		}
		for _, op := range c.Ops {
			if _, err := OpByCode(op); err != nil {
				return err
			}
		}
		for _, rk := range c.Ranks {
			if rk <= 0 || rk > s.Machine.Ranks {
				return fmt.Errorf("workload: cohort %q: rank choice %d outside machine (%d ranks)",
					c.Name, rk, s.Machine.Ranks)
			}
			if int64(rk) > c.WindowLen {
				return fmt.Errorf("workload: cohort %q: %d ranks cannot split a %d-long window",
					c.Name, rk, c.WindowLen)
			}
		}
		for _, d := range s.Datasets {
			if c.WindowLen > d.Dims[0] {
				return fmt.Errorf("workload: cohort %q: window length %d exceeds dataset %q time dim %d",
					c.Name, c.WindowLen, d.Name, d.Dims[0])
			}
		}
		if c.DeadlineHi < c.DeadlineLo {
			return fmt.Errorf("workload: cohort %q: DeadlineHi < DeadlineLo", c.Name)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// cohortSub tags a submission with its merge keys.
type cohortSub struct {
	sub    Submission
	cohort int
	idx    int
}

// Generate materializes the spec into a replayable trace. It is a pure
// function of spec: every draw comes from per-cohort splitmix64 substreams
// of spec.Seed, and the merged ordering breaks timestamp ties by (cohort,
// per-cohort index), so the result is bit-stable across runs and machines
// of the same build.
func Generate(spec Spec) (*Trace, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	var all []cohortSub
	for ci := range spec.Cohorts {
		c := &spec.Cohorts[ci]
		mean, err := c.meanInterarrival()
		if err != nil {
			return nil, err
		}
		r := newRNG(spec.Seed, uint64(ci))
		clientZ := newZipf(c.Clients, c.ClientSkew)
		dsZ := newZipf(len(spec.Datasets), c.DatasetSkew)
		winZ := newZipf(c.Windows, c.WindowSkew)
		t := 0.0
		// A cohort's arrivals come in (t, idx) order, so none beyond its
		// first MaxJobs can be among the merged stream's first MaxJobs.
		for idx := 0; spec.MaxJobs <= 0 || idx < spec.MaxJobs; idx++ {
			// Interarrival: a mean-1 draw scaled by the instantaneous rate
			// (rate modulation by time-scaling, evaluated at the previous
			// arrival — the standard nonhomogeneous-renewal approximation).
			t += c.drawInterarrival(r) / mean / (c.Rate * c.Envelope.At(t))
			if t >= spec.Horizon {
				break
			}
			client := clientZ.draw(r)
			ds := &spec.Datasets[dsZ.draw(r)]
			win := winZ.draw(r)
			op := c.Ops[int(r.next()%uint64(len(c.Ops)))]
			ranks := c.Ranks[int(r.next()%uint64(len(c.Ranks)))]
			// Windows tile [0, time-dim) with evenly spaced starts; with
			// more windows than fit disjointly they overlap, which is fine
			// (overlap is what read coalescing exploits).
			maxStart := ds.Dims[0] - c.WindowLen
			var start int64
			if c.Windows > 1 && maxStart > 0 {
				start = int64(win) * maxStart / int64(c.Windows-1)
			}
			deadline := 0.0
			if c.DeadlineHi > 0 {
				deadline = c.DeadlineLo + r.float64()*(c.DeadlineHi-c.DeadlineLo)
			}
			slabStart := []int64{start, 0, 0}
			slabCount := []int64{c.WindowLen, ds.Dims[1], ds.Dims[2]}
			elems := c.WindowLen * ds.Dims[1] * ds.Dims[2]
			all = append(all, cohortSub{
				cohort: ci,
				idx:    idx,
				sub: Submission{
					T:        t,
					Tenant:   fmt.Sprintf("%s/c%03d", c.Name, client),
					Class:    c.Class,
					Name:     fmt.Sprintf("%s-%06d", c.Name, idx),
					Dataset:  ds.Name,
					Op:       op,
					Start:    slabStart,
					Count:    slabCount,
					SplitDim: 0,
					Ranks:    ranks,
					Reduce:   int(cc.AllToOne),
					Deadline: deadline,
					Priority: c.Priority,
					// A crude but deterministic service estimate: the map
					// cost plus a constant I/O floor. Policies that use
					// EstCost (easy-backfill, fairshare) only need it to be
					// consistent, not accurate.
					EstCost:    float64(elems)*c.SecPerElem + 0.05,
					SecPerElem: c.SecPerElem,
				},
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.sub.T != b.sub.T {
			return a.sub.T < b.sub.T
		}
		if a.cohort != b.cohort {
			return a.cohort < b.cohort
		}
		return a.idx < b.idx
	})
	if spec.MaxJobs > 0 && len(all) > spec.MaxJobs {
		all = all[:spec.MaxJobs]
	}
	tr := &Trace{
		Seed:     spec.Seed,
		Machine:  spec.Machine,
		Datasets: append([]DatasetSpec(nil), spec.Datasets...),
		Jobs:     make([]Submission, len(all)),
	}
	for i := range all {
		tr.Jobs[i] = all[i].sub
	}
	return tr, nil
}
