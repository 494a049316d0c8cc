package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// smokeArgs shrink the job enough for a unit test.
var smokeArgs = []string{"-procs", "4", "-rpn", "2", "-steps", "8", "-ny", "64", "-nx", "64", "-cb", "65536"}

func TestBadInputs(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string // on stderr
	}{
		{[]string{"-nope"}, 2, ""},
		// Deleted, not ignored: what the tracer keeps follows from what reads
		// it, and every observation is a recorded artifact.
		{[]string{"-events", "e.jsonl", "-stream"}, 2, "flag provided but not defined: -stream"},
		{[]string{"-serve", ":0"}, 2, "flag provided but not defined: -serve"},
		{[]string{"-dash"}, 2, "flag provided but not defined: -dash"},
		// Job streams are ccexp workload's: it records and replays them.
		{[]string{"-trace-in", "x"}, 2, "flag provided but not defined: -trace-in"},
		{[]string{"-trace-out", "x"}, 2, "flag provided but not defined: -trace-out"},
		{[]string{"-workload", "nonesuch"}, 1, `unknown workload "nonesuch"`},
		{[]string{"-mode", "warp"}, 1, `unknown mode "warp"`},
		{[]string{"-reduce", "sideways"}, 1, `unknown reduce "sideways"`},
		{[]string{"-workload", "wrf", "-task", "nonesuch"}, 1, `unknown wrf task "nonesuch"`},
		{[]string{"-op", "nonesuch"}, 1, "nonesuch"},
		{[]string{"-policy", "nope"}, 1, `-policy: unknown policy "nope"`},
		{[]string{"-procs", "100", "-steps", "8", "-ny", "64"}, 1, "split the domain"},
		{[]string{"-procs", "0"}, 1, "-procs 0: need at least one rank"},
		{[]string{"-procs", "-3"}, 1, "-procs -3: need at least one rank"},
		{[]string{"-comp", "-1"}, 1, "-comp -1: need a finite cost"},
		{[]string{"-comp", "NaN"}, 1, "-comp NaN: need a finite cost"},
		{[]string{"-straggler-factor", "-4"}, 1, "-straggler-factor -4: need a finite slowdown"},
		{[]string{"-fault-horizon", "-1"}, 1, "-fault-horizon -1: need a finite span"},
		{[]string{"-fault-horizon", "+Inf"}, 1, "-fault-horizon +Inf: need a finite span"},
		{[]string{"-memo", "-mode", "independent"}, 1, "no independent mode"},
		{[]string{"-repeat", "0"}, 1, "-repeat must be >= 1"},
		{[]string{"-memo", "-read-timeout", "0.01"}, 1, "mitigation"},
		{[]string{"-memo", "-aggregators", "2"}, 1, "-aggregators"},
	}
	for _, c := range cases {
		args := c.args
		if c.code == 1 && c.args[0] != "-procs" {
			args = append(append([]string{}, smokeArgs...), c.args...)
		}
		code, out, errb := runCmd(args...)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", args, code, c.code, errb)
		}
		if code == 2 && out != "" {
			t.Errorf("%v: a flag-parse error printed %q on stdout", args, out)
		}
		if c.want != "" && !strings.Contains(errb, c.want) {
			t.Errorf("%v: stderr %q missing %q", args, errb, c.want)
		}
	}
}

func TestSmoke(t *testing.T) {
	code, out, errb := runCmd(append(append([]string{}, smokeArgs...), "-op", "max")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"mode=cc", "op=max", "result:", "virtual makespan:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestStdoutGolden pins ccrun's stdout byte for byte over one run per mode,
// reduce and operator family, the queued path under fairshare, a fault plan
// and the WRF workload, against testdata/stdout.golden.txt. Regenerate with
// UPDATE_CCRUN_GOLDEN=1 only in a change that says which number moved and
// why.
func TestStdoutGolden(t *testing.T) {
	var got bytes.Buffer
	for _, extra := range [][]string{
		{"-op", "count"},
		{"-op", "max", "-reduce", "all2all"},
		{"-op", "min", "-mode", "traditional"},
		{"-op", "sum", "-mode", "independent"},
		{"-op", "sum", "-repeat", "3", "-memo", "-policy", "fairshare"},
		{"-op", "mean", "-stragglers", "2", "-slow-ranks", "1", "-fault-seed", "7",
			"-read-timeout", "0.01", "-read-backoff", "0.002", "-rebalance-rounds", "2"},
		{"-workload", "wrf", "-task", "maxwind"},
	} {
		args := append(append([]string{}, smokeArgs...), extra...)
		code, out, errb := runCmd(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, errb)
		}
		fmt.Fprintf(&got, "== ccrun %s\n%s", strings.Join(extra, " "), out)
	}
	golden := filepath.Join("testdata", "stdout.golden.txt")
	if os.Getenv("UPDATE_CCRUN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_CCRUN_GOLDEN=1)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from the golden:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
}

// TestMemoRepeatSmoke drives the queued path: duplicate submissions must be
// served from one physical pass with identical values, deterministically.
func TestMemoRepeatSmoke(t *testing.T) {
	args := append(append([]string{}, smokeArgs...), "-op", "sum", "-repeat", "3", "-memo")
	code, out1, errb := runCmd(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{
		"repeat=3 memo=true",
		"climate-0: result",
		"shared w/ climate-0",
		"1 physical passes",
		"virtual makespan:",
	} {
		if !strings.Contains(out1, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out1)
		}
	}
	// All three copies print the same result value.
	var vals []string
	for _, line := range strings.Split(out1, "\n") {
		if strings.Contains(line, ": result ") {
			vals = append(vals, strings.Fields(line)[2])
		}
	}
	if len(vals) != 3 || vals[0] != vals[1] || vals[0] != vals[2] {
		t.Fatalf("copies disagree: %v\n%s", vals, out1)
	}
	code, out2, _ := runCmd(args...)
	if code != 0 || out1 != out2 {
		t.Fatalf("queued run not deterministic (exit %d):\n--- first\n%s\n--- second\n%s", code, out1, out2)
	}
}

// TestTraceSmoke runs a traced job from the CLI and checks the trace file is
// valid Chrome trace-event JSON and the metrics dump covers the run,
// byte-identically across two runs.
func TestTraceSmoke(t *testing.T) {
	read := func() (string, string) {
		dir := t.TempDir()
		tr := filepath.Join(dir, "trace.json")
		mt := filepath.Join(dir, "metrics.txt")
		args := append(append([]string{}, smokeArgs...), "-op", "mean", "-trace", tr, "-metrics", mt)
		code, _, errb := runCmd(args...)
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, errb)
		}
		tb, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(mt)
		if err != nil {
			t.Fatal(err)
		}
		return string(tb), string(mb)
	}
	tr1, m1 := read()
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(tr1), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < 10 {
		t.Fatalf("only %d trace events", len(parsed.TraceEvents))
	}
	for _, want := range []string{`"run"`, `"cc.get"`, `"pfs.read"`} {
		if !strings.Contains(tr1, want) {
			t.Errorf("trace missing %s events", want)
		}
	}
	if !strings.Contains(m1, "counter pfs_read_bytes") {
		t.Errorf("metrics dump missing pfs counters:\n%s", m1)
	}
	tr2, m2 := read()
	if tr1 != tr2 || m1 != m2 {
		t.Error("traced run not byte-identical across runs")
	}
}

// TestFaultSmoke drives the fault-injection and mitigation path end to end
// from the CLI and checks the output is deterministic for a fixed seed.
func TestFaultSmoke(t *testing.T) {
	args := append(append([]string{}, smokeArgs...),
		"-stragglers", "2", "-slow-ranks", "1", "-fault-seed", "7",
		"-read-timeout", "0.01", "-read-backoff", "0.002", "-rebalance-rounds", "2")
	code, out1, errb := runCmd(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out1, "fault plan (seed 7)") {
		t.Fatalf("stdout missing fault plan:\n%s", out1)
	}
	if !strings.Contains(out1, "result:") {
		t.Fatalf("stdout missing result:\n%s", out1)
	}
	code, out2, _ := runCmd(args...)
	if code != 0 {
		t.Fatalf("second run: exit %d", code)
	}
	if out1 != out2 {
		t.Fatalf("faulted run not deterministic:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
}

// TestEventsAndSLOSmoke drives the telemetry flags end to end: -events writes
// a deterministic JSONL log, the stock SLO rules hold on a healthy run, and
// an impossible rule fires into a nonzero strict exit with an alert in the
// log.
func TestEventsAndSLOSmoke(t *testing.T) {
	read := func(extra ...string) (int, string, string) {
		dir := t.TempDir()
		ev := filepath.Join(dir, "events.jsonl")
		args := append(append([]string{}, smokeArgs...), "-op", "sum", "-events", ev)
		args = append(args, extra...)
		code, _, errb := runCmd(args...)
		b, _ := os.ReadFile(ev)
		return code, string(b), errb
	}

	code, e1, errb := read("-slo-strict")
	if code != 0 {
		t.Fatalf("healthy strict run: exit %d, stderr %q", code, errb)
	}
	if !strings.HasPrefix(e1, `{"schema":"repro.events.v1"`) {
		t.Fatalf("event log missing schema header:\n%.200s", e1)
	}
	for _, want := range []string{`"e":"span"`, `"name":"pfs.read"`} {
		if !strings.Contains(e1, want) {
			t.Fatalf("event log missing %s:\n%.400s", want, e1)
		}
	}
	if _, e2, _ := read("-slo-strict"); e1 != e2 {
		t.Error("event logs not byte-identical across runs")
	}

	code, ev, errb := read("-slo", "tight=p99(pfs_read_seconds)<1e-12", "-slo-strict")
	if code != 1 {
		t.Fatalf("tight strict run: exit %d, want 1 (stderr %q)", code, errb)
	}
	if !strings.Contains(errb, "SLO tight violated") {
		t.Fatalf("stderr missing violation: %q", errb)
	}
	if !strings.Contains(ev, `"e":"alert"`) || !strings.Contains(ev, `"name":"tight"`) {
		t.Fatalf("event log missing alert:\n%.400s", ev)
	}
}
