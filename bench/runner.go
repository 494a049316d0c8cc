package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// processStart is as early as the benchmark can read the clock; the first
// set-up sample of a process is measured from it, so package initialisation
// of the program under test counts as set-up.
var processStart = time.Now()

const (
	setupSamples = 3 // times a run generates its inputs and runs them fresh
	minTimedReps = 5
)

// config is what the command line selected.
type config struct {
	seed    uint64
	sz      sizing
	seconds float64
	tmp     string // directory for temporary artifacts, the same for every rep
	log     io.Writer
}

// hostSample is the host-side cost of one rep.
type hostSample struct {
	wall, cpu, allocMB, mallocsK, numGC float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// afterTraced is implemented by instances that measure more on the artifacts
// a traced rep left behind, outside the rep's own timing.
type afterTraced interface {
	afterTracedRep(rec *recorder, dir string) error
}

// runRep runs one rep in its own temporary directory, collecting garbage
// first so that every rep starts from the same heap, and removes the
// directory afterwards. Reps never overlap.
func runRep(in instance, rec *recorder, tmp string) (*outcome, hostSample, error) {
	var h hostSample
	dir, err := os.MkdirTemp(tmp, "rep-")
	if err != nil {
		return nil, h, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	o, err := in.rep(rec, dir)
	h.wall = time.Since(t0).Seconds()
	h.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	h.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	h.mallocsK = float64(m1.Mallocs-m0.Mallocs) / 1e3
	h.numGC = float64(m1.NumGC - m0.NumGC)
	if at, ok := in.(afterTraced); ok && rec != nil && err == nil {
		err = at.afterTracedRep(rec, dir)
	}
	return o, h, err
}

// workloadResult is one workload's part of the ledger.
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]stat    `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`

	tracedWall float64 // median wall time of the traced reps, for the shares
}

// checker holds the reference outcome of a run and folds every further rep
// into the result's correctness and counts.
type checker struct {
	res *workloadResult
	ref *outcome
}

// fold accounts one rep. A rep that returned an error or failed a check
// counts all its jobs as failed; a rep whose virtual numbers or counts differ
// from the first rep's breaks the determinism invariant.
func (c *checker) fold(rep int, o *outcome, err error) {
	if err != nil {
		n := 1
		if c.ref != nil {
			n = c.ref.attempted
		}
		c.res.Attempted += n
		c.res.Failed += n
		c.res.Errors = append(c.res.Errors, fmt.Sprintf("rep %d: %v", rep, err))
		return
	}
	c.res.Attempted += o.attempted
	c.res.Failed += o.unexpected
	if c.ref == nil {
		c.ref = o
	} else if diff := o.sameAs(c.ref); diff != "" {
		c.res.Errors = append(c.res.Errors, fmt.Sprintf("rep %d is not bit-identical to rep 0: %s", rep, diff))
	}
}

func (c *checker) finish() {
	c.res.Correct = len(c.res.Errors) == 0 && c.res.Failed == 0 && c.ref != nil
}

// exactStats renders the bit-exact end-to-end metrics of the reference rep,
// which all n reps of the run reproduced.
func exactStats(ref *outcome, n int) map[string]stat {
	vals := map[string]float64{
		"virtual_s":   ref.virtualS,
		"p99_wait_vs": ref.p99Wait(),
		"failed_frac": float64(ref.failed) / float64(ref.attempted),
	}
	out := make(map[string]stat)
	for _, d := range endToEnd[driverEndToEnd:] {
		v := vals[d.Name]
		st := stat{Unit: d.Unit, Clock: d.Clock, Value: v, Median: v, Q1: v, Q3: v, N: n, Samples: []float64{v}}
		if d.Name == "p99_wait_vs" {
			st.N = len(ref.waits) // the percentile's own sample count
		}
		out[d.Name] = st
	}
	return out
}

// measure is the end-to-end pass of one workload, benchmark tracing off.
// The first setupSamples iterations generate the inputs afresh and run them
// once: each is a set-up sample, and the first (cold) rep is discarded as the
// warm-up. Every later rep, and the warm reps of set-up samples two and
// three, are the timed reps; they go on until cfg.seconds have passed and
// there are at least minTimedReps of them.
func measure(w workloadDef, cfg config, firstInProcess bool) *workloadResult {
	res := &workloadResult{Name: w.name, Why: w.why}
	chk := &checker{res: res}
	defer chk.finish()
	var setup, wall, alloc []float64
	var in instance
	var timedStart time.Time
	for i := 0; ; i++ {
		t0 := time.Now()
		if i == 0 && firstInProcess {
			t0 = processStart
		}
		if i < setupSamples {
			var err error
			if in, err = w.gen(cfg.seed, cfg.sz, nil); err != nil {
				chk.fold(i, nil, fmt.Errorf("generating inputs: %w", err))
				return res
			}
		}
		if i == 1 {
			timedStart = time.Now()
		}
		o, h, err := runRep(in, nil, cfg.tmp)
		chk.fold(i, o, err)
		if err != nil {
			return res
		}
		if i < setupSamples {
			setup = append(setup, time.Since(t0).Seconds())
		}
		if i >= 1 {
			wall = append(wall, h.wall)
			alloc = append(alloc, h.allocMB)
		}
		if len(wall) >= minTimedReps && time.Since(timedStart).Seconds() >= cfg.seconds {
			break
		}
	}
	res.EndToEnd = exactStats(chk.ref, len(wall))
	host := map[string][]float64{"wall_s": wall, "setup_s": setup, "alloc_mb": alloc}
	for _, d := range endToEnd[:driverEndToEnd] {
		st := newStat(d, host[d.Name])
		res.EndToEnd[d.Name] = st
		if !d.NoSpread && st.spread() > d.Bound {
			fmt.Fprintf(cfg.log, "warning: %s %s: quartile spread %.1f%% of the median exceeds its %.0f%% bound; raise -seconds\n",
				w.name, d.Name, 100*st.spread(), 100*d.Bound)
		}
	}
	return res
}
