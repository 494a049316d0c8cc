package workload

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/host"
)

// smallSpec is a fast spec for unit tests: a few hundred jobs, all three
// interarrival laws, deadlines on two cohorts.
func smallSpec(seed uint64) Spec {
	s := DefaultSpec(seed, 1.0, 30, 0, "fifo")
	s.Machine.Ranks = 8
	s.Machine.RanksPerNode = 4
	for i := range s.Cohorts {
		s.Cohorts[i].Ranks = []int{2, 4}
		s.Cohorts[i].Clients = 50
	}
	return s
}

func mustGenerate(t *testing.T, spec Spec) *Trace {
	t.Helper()
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr
}

// TestGenerateDeterministic: the same spec generates the identical stream,
// and a different seed generates a different one.
func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallSpec(7))
	b := mustGenerate(t, smallSpec(7))
	if d := Diff(a, b, 5); d != nil {
		t.Fatalf("same seed differs: %v", d)
	}
	if len(a.Jobs) == 0 {
		t.Fatal("empty stream")
	}
	c := mustGenerate(t, smallSpec(8))
	if d := Diff(a, c, 1); d == nil {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGenerateOrderedAndShaped: arrivals are time-ordered, within horizon,
// and every submission respects its cohort's shape choices.
func TestGenerateOrderedAndShaped(t *testing.T) {
	spec := smallSpec(3)
	tr := mustGenerate(t, spec)
	classes := map[string]bool{}
	last := 0.0
	for i, s := range tr.Jobs {
		if s.T < last {
			t.Fatalf("job %d: time %v before predecessor %v", i, s.T, last)
		}
		last = s.T
		if s.T >= spec.Horizon {
			t.Fatalf("job %d: time %v past horizon", i, s.T)
		}
		if s.Ranks != 2 && s.Ranks != 4 {
			t.Fatalf("job %d: ranks %d not a cohort choice", i, s.Ranks)
		}
		if len(s.Start) != 3 || len(s.Count) != 3 {
			t.Fatalf("job %d: slab rank %d/%d", i, len(s.Start), len(s.Count))
		}
		if !strings.HasPrefix(s.Tenant, s.Name[:strings.IndexByte(s.Name, '-')]+"/c") {
			t.Fatalf("job %d: tenant %q does not match name %q", i, s.Tenant, s.Name)
		}
		if _, err := OpByCode(s.Op); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		classes[s.Class] = true
	}
	for _, want := range []string{"interactive", "batch", "urgent"} {
		if !classes[want] {
			t.Fatalf("no %q submissions in %d jobs", want, len(tr.Jobs))
		}
	}
}

// TestMaxJobsTruncation: MaxJobs keeps the first N submissions of the
// untruncated stream. Generate stops every cohort at MaxJobs arrivals rather
// than materialising the horizon, so the capped stream is compared, as trace
// bytes, with the uncapped one cut to length — over seeds, over rates that
// put the cap early or late in the horizon, and over caps from one job (a
// single cohort's first arrival must win) to more than the stream holds.
func TestMaxJobsTruncation(t *testing.T) {
	traceBytes := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, seed := range []uint64{5, 6, 99} {
		for _, rate := range []float64{1, 8, 40} {
			spec := smallSpec(seed)
			spec.Horizon = 10
			for i := range spec.Cohorts {
				spec.Cohorts[i].Rate *= rate
			}
			full := mustGenerate(t, spec)
			if len(full.Jobs) < 150 {
				t.Fatalf("seed %d rate %g: stream too small to test truncation: %d", seed, rate, len(full.Jobs))
			}
			for _, cap := range []int{1, 20, 120, len(full.Jobs) + 7} {
				spec.MaxJobs = cap
				cut := mustGenerate(t, spec)
				want := *full
				if cap < len(full.Jobs) {
					want.Jobs = full.Jobs[:cap]
				}
				if len(cut.Jobs) != len(want.Jobs) {
					t.Fatalf("seed %d rate %g cap %d: %d jobs, want %d", seed, rate, cap, len(cut.Jobs), len(want.Jobs))
				}
				if !bytes.Equal(traceBytes(cut), traceBytes(&want)) {
					t.Fatalf("seed %d rate %g cap %d: capped stream is not the uncapped stream's prefix: %v",
						seed, rate, cap, Diff(&want, cut, 3))
				}
			}
		}
	}
}

// TestZipfSkew: a skewed popularity draw concentrates mass on low indices;
// an unskewed one does not.
func TestZipfSkew(t *testing.T) {
	r := newRNG(1, 0)
	z := newZipf(100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.draw(r)]++
	}
	top := counts[0] + counts[1] + counts[2]
	if top < 20000/4 {
		t.Fatalf("zipf(1.2): top-3 of 100 items got %d/20000 draws, want heavy skew", top)
	}
	flat := newZipf(100, 0)
	counts = make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[flat.draw(r)]++
	}
	if top := counts[0] + counts[1] + counts[2]; top > 20000/10 {
		t.Fatalf("zipf(0): top-3 got %d/20000 draws, want ~uniform", top)
	}
}

// serialZipf is the one-pass loop newZipf's table must equal.
func serialZipf(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	return cdf
}

// BenchmarkZipfTable times the default spec's largest table, the urgent
// cohort's 800,000 clients at skew 1.3, built by newZipf and by the serial
// loop.
func BenchmarkZipfTable(b *testing.B) {
	b.Run("newZipf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newZipf(800_000, 1.3)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serialZipf(800_000, 1.3)
		}
	})
}

// TestZipfTableMatchesSerialLoop: newZipf's table, whose weights the host
// workers compute a block at a time, is bit for bit the one-pass serial loop
// it replaced: at every size around host.Grain and a block boundary, up to
// the default spec's 800,000 clients, for skews from uniform to steep, at
// GOMAXPROCS 1 and 4.
func TestZipfTableMatchesSerialLoop(t *testing.T) {
	sizes := []int{1, host.Grain - 1, host.Grain, host.Grain + 1,
		10*zipfBlock - 1, 10 * zipfBlock, 10*zipfBlock + 1, 5_000, 200_000, 800_000}
	for _, n := range sizes {
		for _, s := range []float64{0, 0.8, 1.0, 1.1, 1.3, 1.5} {
			want := serialZipf(n, s)
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got := newZipf(n, s).cdf
				runtime.GOMAXPROCS(prev)
				if len(got) != n {
					t.Fatalf("n=%d s=%g GOMAXPROCS=%d: table of %d entries", n, s, procs, len(got))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d s=%g GOMAXPROCS=%d: cdf[%d] = %v, serial loop %v",
							n, s, procs, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEnvelopeModulation: the diurnal envelope shifts arrival density
// between its peak and trough, and never goes below the floor.
func TestEnvelopeModulation(t *testing.T) {
	env := Envelope{{Period: 100, Amp: 0.9}}
	peak := env.At(25)   // sin = 1
	trough := env.At(75) // sin = -1
	if math.Abs(peak-1.9) > 1e-12 || math.Abs(trough-0.1) > 1e-12 {
		t.Fatalf("envelope peak/trough = %v/%v, want 1.9/0.1", peak, trough)
	}
	deep := Envelope{{Period: 100, Amp: 5}}
	if v := deep.At(75); v != 0.05 {
		t.Fatalf("envelope floor = %v, want 0.05", v)
	}

	// A single-cohort spec over one envelope period: the high-rate half
	// must contain clearly more arrivals than the low-rate half.
	spec := smallSpec(11)
	spec.Horizon = 100
	spec.Cohorts = spec.Cohorts[:1]
	spec.Cohorts[0].Rate = 20
	spec.Cohorts[0].Envelope = env
	tr := mustGenerate(t, spec)
	var first, second int
	for _, s := range tr.Jobs {
		if s.T < 50 {
			first++
		} else {
			second++
		}
	}
	if first < second*2 {
		t.Fatalf("envelope had no effect: %d arrivals in peak half vs %d in trough half", first, second)
	}
}

// TestInterarrivalMeans: each law's normalized draws have mean ~1, so Rate
// really is the aggregate arrival rate for every Dist.
func TestInterarrivalMeans(t *testing.T) {
	for _, c := range []Cohort{
		{Name: "p", Dist: "poisson"},
		{Name: "g", Dist: "gamma", Shape: 0.7},
		{Name: "w", Dist: "weibull", Shape: 0.8},
	} {
		mean, err := c.meanInterarrival()
		if err != nil {
			t.Fatal(err)
		}
		r := newRNG(42, 9)
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			sum += c.drawInterarrival(r) / mean
		}
		if got := sum / n; math.Abs(got-1) > 0.02 {
			t.Fatalf("%s: normalized mean interarrival %v, want ~1", c.Dist, got)
		}
	}
}

// TestOpByCode covers the histogram codec and rejection of malformed codes,
// non-finite bounds and a range too wide for a float64 among them.
func TestOpByCode(t *testing.T) {
	op, err := OpByCode("hist:-40:50:32")
	if err != nil {
		t.Fatal(err)
	}
	if op.Name() != "hist32" {
		t.Fatalf("decoded op %q, want hist32", op.Name())
	}
	if _, err := OpByCode("sum"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"hist:1:2", "hist:a:b:c", "hist:5:1:8", "hist:0:1:0", "nosuch",
		"hist:nan:1:4", "hist:0:nan:4", "hist:0:inf:4", "hist:-inf:0:4", "hist:-inf:inf:4",
		"hist:-1e308:1e308:4"} {
		if _, err := OpByCode(bad); err == nil {
			t.Fatalf("OpByCode(%q) accepted", bad)
		}
	}
}

// TestTraceRoundTrip: Write → Read → Write reproduces the exact bytes, and
// the reread trace diffs clean against the original.
func TestTraceRoundTrip(t *testing.T) {
	tr := mustGenerate(t, smallSpec(13))
	var buf1 bytes.Buffer
	if err := Write(&buf1, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(tr, got, 3); d != nil {
		t.Fatalf("round trip changed the trace: %v", d)
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialized trace is not byte-identical")
	}
}

// TestTraceReadRejects: corrupted traces fail loudly rather than replaying
// wrong.
func TestTraceReadRejects(t *testing.T) {
	tr := mustGenerate(t, smallSpec(17))
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")

	cases := map[string]string{
		"empty":         "",
		"bad schema":    `{"schema":"repro.workload.v99"}` + "\n",
		"no machine":    lines[0] + lines[len(lines)-2],
		"truncated":     strings.Join(lines[:len(lines)-2], ""),
		"spliced index": lines[0] + lines[1] + lines[2] + lines[3] + lines[4] + lines[5] + lines[7],
		"unknown line":  lines[0] + lines[1] + `{"x":1}` + "\n",
	}
	for name, text := range cases {
		if _, err := Read(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Read accepted a corrupt trace", name)
		}
	}
}

// TestTraceReadRejectsHostile: a trace whose headers the cluster would
// refuse, or whose job they cannot run, is an error naming its line — one
// case per check. Every case but three panics or fails when the trace is
// replayed without Read: an unknown reduce code replays as all-to-all,
// though it names no mode, and a negative arrival time or cost estimate
// replays into a schedule no job could have had (a negative estimate moved
// the urgent class's waits to 0).
func TestTraceReadRejectsHostile(t *testing.T) {
	golden := goldenTrace(t)
	base, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	// The golden's lines: schema, machine, three datasets, meta, then jobs.
	const machineLine, jobLine = 2, 7
	cases := []struct {
		name   string
		line   int
		want   string
		mutate func(*Trace)
	}{
		{"machine without ranks", machineLine, "machine of 0 ranks", func(tr *Trace) { tr.Machine.Ranks = 0 }},
		{"negative node width", machineLine, "-1 per node", func(tr *Trace) { tr.Machine.RanksPerNode = -1 }},
		{"unknown policy", machineLine, `unknown policy "nope"`, func(tr *Trace) { tr.Machine.Policy = "nope" }},
		{"dataset declared twice", 6, `dataset "climate-a" declared twice`, func(tr *Trace) {
			tr.Datasets = append(tr.Datasets, tr.Datasets[0])
		}},
		{"undeclared dataset", jobLine, `dataset "nosuch" not declared`, func(tr *Trace) { tr.Jobs[0].Dataset = "nosuch" }},
		{"start of the wrong rank", jobLine, "start [0 0]", func(tr *Trace) { tr.Jobs[0].Start = tr.Jobs[0].Start[:2] }},
		{"count of the wrong rank", jobLine, "count [4 16 16 1]", func(tr *Trace) {
			tr.Jobs[0].Count = append(tr.Jobs[0].Count, 1)
		}},
		{"window past the dims", jobLine, "outside dataset", func(tr *Trace) { tr.Jobs[0].Count[0] = 100000 }},
		{"negative start", jobLine, "outside dataset", func(tr *Trace) { tr.Jobs[0].Start[1] = -1 }},
		{"wider than the machine", jobLine, "100000 ranks on a 8-rank machine", func(tr *Trace) { tr.Jobs[0].Ranks = 100000 }},
		{"no ranks", jobLine, "0 ranks", func(tr *Trace) { tr.Jobs[0].Ranks = 0 }},
		{"split dim out of range", jobLine, "split dim 3", func(tr *Trace) { tr.Jobs[0].SplitDim = 3 }},
		{"split dim too short", jobLine, "split dim 0", func(tr *Trace) { tr.Jobs[0].Count[0] = 1 }},
		{"reduce code", jobLine, "reduce code 2", func(tr *Trace) { tr.Jobs[0].Reduce = 2 }},
		{"operator code", jobLine, `"nosuch"`, func(tr *Trace) { tr.Jobs[0].Op = "nosuch" }},
		{"negative arrival", jobLine, "t -1,", func(tr *Trace) { tr.Jobs[0].T = -1 }},
		{"negative map cost", jobLine, "spe -1e-06,", func(tr *Trace) { tr.Jobs[0].SecPerElem = -1e-6 }},
		{"negative estimate", jobLine, "est -0.5:", func(tr *Trace) { tr.Jobs[0].EstCost = -0.5 }},
	}
	// These replay without Read, into a schedule no job could have had.
	silent := map[string]bool{"reduce code": true, "negative arrival": true, "negative estimate": true}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := oracleRead(bytes.NewReader(golden)) // a private copy
			if err != nil {
				t.Fatal(err)
			}
			c.mutate(tr)
			_, err = Read(bytes.NewReader(writeTrace(t, tr)))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d: ", c.line)) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Read error %v, want one naming line %d and %q", err, c.line, c.want)
			}
			if !silent[c.name] && !replayFails(tr) {
				t.Fatal("the trace replays cleanly without Read: the check guards nothing")
			}
		})
	}
	// The stripe count is checked against the file system, when provisioning.
	for _, stripes := range []int{0, 1000} {
		tr := *base
		tr.Datasets = append([]DatasetSpec(nil), base.Datasets...)
		tr.Datasets[1].StripeCount = stripes
		if _, err := Provision(&tr, nil); err == nil || !strings.Contains(err.Error(), "stripe count") {
			t.Errorf("Provision with %d stripes: error %v", stripes, err)
		}
	}
}

// replayFails reports whether replaying tr panics or returns an error.
func replayFails(tr *Trace) (failed bool) {
	defer func() {
		if recover() != nil {
			failed = true
		}
	}()
	_, _, err := Run(tr, nil)
	return err != nil
}

// TestDiff reports machine, dataset, count, and per-job differences.
func TestDiff(t *testing.T) {
	a := mustGenerate(t, smallSpec(19))
	b := mustGenerate(t, smallSpec(19))
	if d := Diff(a, b, 0); d != nil {
		t.Fatalf("identical traces diff: %v", d)
	}
	b.Machine.Policy = "priority"
	b.Jobs[0].Deadline = 99
	b.Jobs = b.Jobs[:len(b.Jobs)-1]
	d := Diff(a, b, 0)
	if len(d) != 3 {
		t.Fatalf("want 3 differences, got %d: %v", len(d), d)
	}
	if got := Diff(a, b, 1); len(got) != 1 {
		t.Fatalf("limit=1 returned %d lines", len(got))
	}
}

// TestValidateRejects exercises the spec validator's error paths.
func TestValidateRejects(t *testing.T) {
	mutations := map[string]func(*Spec){
		"no ranks":        func(s *Spec) { s.Machine.Ranks = 0 },
		"no horizon":      func(s *Spec) { s.Horizon = 0 },
		"no datasets":     func(s *Spec) { s.Datasets = nil },
		"no cohorts":      func(s *Spec) { s.Cohorts = nil },
		"2d dataset":      func(s *Spec) { s.Datasets[0].Dims = []int64{4, 4} },
		"bad name":        func(s *Spec) { s.Cohorts[0].Name = "a/b" },
		"no rate":         func(s *Spec) { s.Cohorts[0].Rate = 0 },
		"no ops":          func(s *Spec) { s.Cohorts[0].Ops = nil },
		"bad op":          func(s *Spec) { s.Cohorts[0].Ops = []string{"nosuch"} },
		"wide ranks":      func(s *Spec) { s.Cohorts[0].Ranks = []int{99} },
		"unsplittable":    func(s *Spec) { s.Cohorts[0].Ranks = []int{8}; s.Cohorts[0].WindowLen = 4 },
		"window too long": func(s *Spec) { s.Cohorts[0].WindowLen = 1 << 20 },
		"bad deadline":    func(s *Spec) { s.Cohorts[0].DeadlineLo = 9; s.Cohorts[0].DeadlineHi = 5 },
		"bad dist":        func(s *Spec) { s.Cohorts[0].Dist = "pareto" },
		"gamma shape":     func(s *Spec) { s.Cohorts[0].Dist = "gamma"; s.Cohorts[0].Shape = 0 },
	}
	for name, mutate := range mutations {
		spec := smallSpec(1)
		mutate(&spec)
		if _, err := Generate(spec); err == nil {
			t.Errorf("%s: Generate accepted an invalid spec", name)
		}
	}
	// Non-finite inputs, which pass every ordered test. Each row caps the
	// stream, so that a spec wrongly accepted ends the arrival loop instead
	// of hanging the test, and a cohort's error must name the cohort.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		cohort int // -1: a spec-level field
		mutate func(*Spec)
	}{
		{"NaN horizon", -1, func(s *Spec) { s.Horizon = nan }},
		{"+Inf horizon", -1, func(s *Spec) { s.Horizon = inf }},
		{"NaN rate", 1, func(s *Spec) { s.Cohorts[1].Rate = nan }},
		{"+Inf rate", 1, func(s *Spec) { s.Cohorts[1].Rate = inf }},
		{"NaN gamma shape", 1, func(s *Spec) { s.Cohorts[1].Shape = nan }},
		{"NaN weibull shape", 2, func(s *Spec) { s.Cohorts[2].Shape = nan }},
		{"NaN poisson shape", 0, func(s *Spec) { s.Cohorts[0].Shape = nan }},
		{"NaN client skew", 0, func(s *Spec) { s.Cohorts[0].ClientSkew = nan }},
		{"-Inf dataset skew", 0, func(s *Spec) { s.Cohorts[0].DatasetSkew = -inf }},
		{"+Inf window skew", 2, func(s *Spec) { s.Cohorts[2].WindowSkew = inf }},
		{"NaN deadline lo", 0, func(s *Spec) { s.Cohorts[0].DeadlineLo = nan }},
		{"NaN deadline hi", 0, func(s *Spec) { s.Cohorts[0].DeadlineHi = nan }},
		{"+Inf deadline hi", 2, func(s *Spec) { s.Cohorts[2].DeadlineHi = inf }},
		{"NaN sec per elem", 2, func(s *Spec) { s.Cohorts[2].SecPerElem = nan }},
		{"NaN envelope amp", 0, func(s *Spec) { s.Cohorts[0].Envelope[1].Amp = nan }},
		{"+Inf envelope phase", 0, func(s *Spec) { s.Cohorts[0].Envelope[0].Phase = inf }},
		{"NaN period", 1, func(s *Spec) { s.Cohorts[1].Envelope[0].Period = nan }},
		{"zero period", 1, func(s *Spec) { s.Cohorts[1].Envelope[0].Period = 0 }},
		{"negative period", 1, func(s *Spec) { s.Cohorts[1].Envelope[0].Period = -1 }},
	} {
		spec := smallSpec(1)
		spec.MaxJobs = 50
		tc.mutate(&spec)
		_, err := Generate(spec)
		switch {
		case err == nil:
			t.Errorf("%s: Generate accepted an invalid spec", tc.name)
		case tc.cohort >= 0 && !strings.Contains(err.Error(), fmt.Sprintf("cohort %q", spec.Cohorts[tc.cohort].Name)):
			t.Errorf("%s: error %q does not name cohort %q", tc.name, err, spec.Cohorts[tc.cohort].Name)
		}
	}
}

// TestAppendJobZeroAllocAndEscapes: a job line is appended straight into the
// caller's buffer — nothing allocated per line — and names that need JSON
// escaping survive Write → oracleRead, the encoding/json reader, so the
// writer's string rendering is checked by a decoder it does not share.
func TestAppendJobZeroAllocAndEscapes(t *testing.T) {
	tr := mustGenerate(t, smallSpec(19))
	tr.Jobs[0].Tenant = "a<b>&\"c\"\\ \u2028\xff"
	tr.Jobs[0].Name = "tab\there\nnewline"
	tr.Machine.Policy = "pri\"ority"
	tr.Datasets[0].Name, tr.Jobs[1].Dataset = "déjà<1>", "déjà<1>"
	buf := make([]byte, 0, 512)
	if got := testing.AllocsPerRun(200, func() { buf = appendJob(buf[:0], 0, &tr.Jobs[0]) }); got != 0 {
		t.Errorf("appendJob allocates %v times per line, want 0", got)
	}
	var file bytes.Buffer
	if err := Write(&file, tr); err != nil {
		t.Fatal(err)
	}
	got, err := oracleRead(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Invalid UTF-8 is written as U+FFFD, like every JSON writer here.
	tr.Jobs[0].Tenant = "a<b>&\"c\"\\ \u2028\ufffd"
	if d := Diff(tr, got, 3); d != nil {
		t.Fatalf("escaped names changed in the round trip: %v", d)
	}
}
