// Command bench is the repository's performance ledger: four workloads that
// stress different layers, measured end to end (host wall time, set-up time,
// heap allocated, and the bit-exact virtual results) and, in a separate
// traced pass, layer by layer (probes, spans around the calls into each
// layer, and the counters the program exports). README.md beside this file
// documents every metric and workload.
//
//	go run ./bench                                  every workload, end to end
//	go run ./bench -workload paper_cc -seconds 20   one workload
//	go run ./bench -trace 1 -spans spans.json       the traced pass, all layers
//	go run ./bench -probes                          the layer probes alone
//	go run ./bench -out a.json; go run ./bench -out b.json
//	go run ./bench -compare a.json b.json           do two sets of runs agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

const ledgerSchema = "repro.bench.v1"

// defaultSeconds is the length of one run's timed window; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 25

// envInfo records where a ledger was measured.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Size       string  `json:"size"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	LLCMB      float64 `json:"llc_mb"`
	CodecMB    float64 `json:"codec_array_mb"`
}

// ledger is the -out file: one run of the benchmark.
type ledger struct {
	Schema    string             `json:"schema"`
	Env       envInfo            `json:"env"`
	Workloads []*workloadResult  `json:"workloads,omitempty"`
	Probes    map[string]float64 `json:"probes,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "run only this workload (default: all four)")
	seed := fl.Int64("seed", 42, "seed of the generated inputs")
	seconds := fl.Float64("seconds", defaultSeconds, "length of the timed window of one run")
	trace := fl.Int("trace", 0, "0: end-to-end pass, benchmark tracing off; 1: traced pass and probes, per-layer metrics")
	size := fl.String("size", "std", "input size: std (what BENCHMARK.json measures), paper (Fig. 9 at 1:1 and the long streams) or tiny (smoke test)")
	probesOnly := fl.Bool("probes", false, "run only the layer probes")
	spansPath := fl.String("spans", "", "with -trace 1: write the recorded spans to this JSON file")
	outPath := fl.String("out", "", "write the ledger (values, medians, quartiles, samples, environment) to this JSON file")
	tmp := fl.String("tmp", ".bench_build", "directory for temporary artifacts")
	compare := fl.Bool("compare", false, "compare two ledgers: -compare A.json B.json")
	printManifest := fl.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case *printManifest:
		b, err := manifest(defaultSeconds)
		if err != nil {
			return fail(err)
		}
		stdout.Write(b)
		return 0
	case *compare:
		if fl.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two ledger files"))
		}
		worse, err := compareLedgers(fl.Arg(0), fl.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	sz, ok := sizings[*size]
	if !ok {
		return fail(fmt.Errorf("unknown -size %q", *size))
	}
	selected := workloads
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown -workload %q", *workload))
		}
		selected = []workloadDef{w}
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is 0 or 1"))
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return fail(err)
	}
	cfg := config{seed: uint64(*seed), sz: sz, seconds: *seconds, tmp: *tmp, log: stderr}
	led := &ledger{Schema: ledgerSchema, Env: envInfo{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: os.Getenv("GOGC"), Size: sz.name, Seed: cfg.seed, Seconds: *seconds, Trace: *trace,
		LLCMB: float64(llcBytes()) / (1 << 20), CodecMB: float64(4*sz.codecElems) / (1 << 20),
	}}
	if led.Env.GOGC == "" {
		led.Env.GOGC = "100 (default)"
	}
	fmt.Fprintf(stderr, "bench: nproc=%d %s GOMAXPROCS=%d GOGC=%s size=%s seed=%d seconds=%g trace=%d llc=%.0fMiB codec_array=%.0fMiB\n",
		led.Env.NProc, led.Env.GoVersion, led.Env.GOMAXPROCS, led.Env.GOGC, sz.name, *seed, *seconds, *trace, led.Env.LLCMB, led.Env.CodecMB)

	correct := true
	var rec *recorder
	if *trace == 1 {
		rec = newRecorder()
	}
	if !*probesOnly {
		for i, w := range selected {
			var res *workloadResult
			if rec != nil {
				res = traced(w, cfg, rec)
			} else {
				res = measure(w, cfg, i == 0)
			}
			led.Workloads = append(led.Workloads, res)
			correct = correct && res.Correct
			if rec == nil {
				printWorkload(stdout, res)
			}
		}
	}
	if *probesOnly || rec != nil {
		// Each probe's timed calls last a quarter of the run's seconds
		// divided among the probes, and at most half a second; with
		// calibration and set-up the probes then take about half the run.
		// They run after the workloads, so that a workload's first rep is
		// the first thing the process does.
		target := math.Max(0.01, math.Min(0.5, *seconds/4/float64(len(probeDefs()))))
		var err error
		if led.Probes, err = runProbes(cfg.seed, sz, cfg.tmp, target); err != nil {
			return fail(err)
		}
	}
	if *probesOnly {
		fmt.Fprintln(stdout, "== probes")
		printValues(stdout, led.Probes, probeDefs())
	}
	if rec != nil {
		for _, res := range led.Workloads {
			addProbes(res, led.Probes)
			printWorkload(stdout, res)
		}
		if *spansPath != "" {
			if err := rec.writeFile(*spansPath); err != nil {
				return fail(err)
			}
		}
	}
	if *outPath != "" {
		b, err := json.MarshalIndent(led, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if len(led.Workloads) == 1 {
		// The driver's contract: the last line of standard output is the
		// one selected workload's result.
		if err := printResultLine(stdout, led.Workloads[0], *trace); err != nil {
			return fail(err)
		}
	}
	if !correct {
		return 1
	}
	return 0
}

// printWorkload prints every metric of one workload by name, with its unit
// and clock.
func printWorkload(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "== %s: correct=%t attempted=%d failed=%d\n", res.Name, res.Correct, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, d := range endToEnd {
		st, ok := res.EndToEnd[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-14s %14.6g %-5s [q1 %.6g, median %.6g, q3 %.6g] n=%d  %s clock, %s is better, bound %g%%\n",
			d.Name, st.Value, d.Unit, st.Q1, st.Median, st.Q3, st.N, d.Clock, d.Better, 100*d.Bound)
	}
	if res.PerLayer != nil {
		printValues(w, res.PerLayer, perLayer())
	}
}

// printValues prints the metrics of defs that vals holds, by name with unit
// and clock.
func printValues(w io.Writer, vals map[string]float64, defs []metricDef) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(w, "   %-44s %16.6g %-8s %s\n", d.Name, v, d.Unit, d.Clock)
		}
	}
}

// printResultLine prints the one JSON object the driver reads: the
// BENCHMARK.json end-to-end metrics of an untraced run, or every per-layer
// metric of a traced one.
func printResultLine(w io.Writer, res *workloadResult, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	if trace == 1 {
		for _, d := range perLayer() {
			line.Metrics[d.Name] = value{res.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd[:driverEndToEnd] {
			line.Metrics[d.Name] = value{res.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
