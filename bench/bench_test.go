package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifestFile mirrors BENCHMARK.json.
type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// readManifest loads the committed BENCHMARK.json and checks that it is what
// the program's own metric tables render, so the two cannot drift apart.
func readManifest(t *testing.T) manifestFile {
	t.Helper()
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := manifest(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, rendered) {
		t.Fatal("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
	var m manifestFile
	if err := json.Unmarshal(committed, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestWithinContract(t *testing.T) {
	m := readManifest(t)
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, e := range m.EndToEnd {
		name(e.Name)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, p := range m.PerLayer {
		name(p.Name)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

// resultLine is the driver's view of one run.
type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runBench runs the benchmark in-process at the tiny size and returns its
// standard output.
func runBench(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-size", "tiny", "-seconds", "0.1", "-tmp", t.TempDir()}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("correct=%t attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// TestEndToEndPass smokes all four workloads, checks that every end-to-end
// metric is printed by name for each, and that the ledger agrees with itself.
func TestEndToEndPass(t *testing.T) {
	m := readManifest(t)
	ledgerPath := filepath.Join(t.TempDir(), "a.json")
	out := runBench(t, "-out", ledgerPath)
	for _, w := range m.Workloads {
		if !strings.Contains(out, "== "+w.Name+": correct=true") {
			t.Errorf("workload %s did not run correctly:\n%s", w.Name, out)
		}
	}
	var led ledger
	b, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &led); err != nil {
		t.Fatal(err)
	}
	if led.Env.NProc < 1 || led.Env.GoVersion == "" || led.Env.GOMAXPROCS < 1 || led.Env.GOGC == "" {
		t.Errorf("environment not recorded: %+v", led.Env)
	}
	for _, res := range led.Workloads {
		for _, d := range endToEnd {
			st, ok := res.EndToEnd[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s missing", res.Name, d.Name)
			case st.Unit != d.Unit || st.Clock != d.Clock:
				t.Errorf("%s: %s tagged %q/%q, want %q/%q", res.Name, d.Name, st.Unit, st.Clock, d.Unit, d.Clock)
			case math.IsNaN(st.Value) || math.IsInf(st.Value, 0):
				t.Errorf("%s: %s = %v", res.Name, d.Name, st.Value)
			case d.Clock == clockHost && (st.Value <= 0 || st.Q1 > st.Median || st.Median > st.Q3 || st.N < 3):
				t.Errorf("%s: %s = %v [%v, %v, %v] over %d samples", res.Name, d.Name, st.Value, st.Q1, st.Median, st.Q3, st.N)
			}
		}
	}

	var cmp bytes.Buffer
	if code := run([]string{"-compare", ledgerPath, ledgerPath}, &cmp, &cmp); code != 0 {
		t.Fatalf("-compare of a ledger with itself: exit %d\n%s", code, cmp.String())
	}
	rows := 0
	for _, line := range strings.Split(cmp.String(), "\n")[1:] {
		if line == "" {
			continue
		}
		rows++
		if !strings.HasSuffix(line, " same") {
			t.Errorf("-compare of a ledger with itself: %s", line)
		}
	}
	if want := len(m.Workloads) * len(endToEnd); rows != want {
		t.Errorf("-compare printed %d rows, want %d", rows, want)
	}
}

// TestDriverLines checks the one-workload form the driver runs: the last line
// carries exactly the manifest's end-to-end metrics untraced and exactly its
// per-layer metrics traced, each finite and tagged with the manifest's unit.
func TestDriverLines(t *testing.T) {
	m := readManifest(t)
	for trace, out := range []string{
		runBench(t, "-workload", "mem_write_read", "-trace", "0"),
		runBench(t, "-workload", "mem_write_read", "-trace", "1"),
	} {
		want := make(map[string]string)
		for _, e := range m.EndToEnd {
			if trace == 0 {
				want[e.Name] = e.Unit
			}
		}
		for _, p := range m.PerLayer {
			if trace == 1 {
				want[p.Name] = p.Unit
			}
		}
		r := lastLine(t, out)
		if len(r.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics on the last line, manifest lists %d", trace, len(r.Metrics), len(want))
		}
		for name, unit := range want {
			v, ok := r.Metrics[name]
			switch {
			case !ok:
				t.Errorf("trace %d: %s not printed", trace, name)
			case v.Unit != unit:
				t.Errorf("trace %d: %s has unit %q, manifest says %q", trace, name, v.Unit, unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("trace %d: %s = %v", trace, name, v.Value)
			case trace == 0 && v.Value <= 0:
				t.Errorf("end-to-end %s = %v, must never be 0", name, v.Value)
			}
		}
	}
}

// TestTracedPassAllWorkloads runs the traced pass over every workload in one
// process and checks that each fills the spans and counts it owns, and that
// the spans written at exit are the ones the metrics came from.
func TestTracedPassAllWorkloads(t *testing.T) {
	spansPath := filepath.Join(t.TempDir(), "spans.json")
	out := runBench(t, "-trace", "1", "-spans", spansPath)
	sections := strings.Split(out, "== ")[1:]
	if len(sections) != len(workloads) {
		t.Fatalf("%d workload sections, want %d", len(sections), len(workloads))
	}
	for i, w := range workloads {
		sec := sections[i]
		if !strings.HasPrefix(sec, w.name+": correct=true") {
			t.Errorf("%s: traced pass incorrect:\n%s", w.name, sec)
		}
		vals := make(map[string]float64)
		for _, line := range strings.Split(sec, "\n")[1:] {
			f := strings.Fields(line)
			if len(f) >= 3 {
				var v float64
				if err := json.Unmarshal([]byte(f[1]), &v); err == nil {
					vals[f[0]] = v
				}
			}
		}
		for _, s := range workloadSpans[w.name] {
			if n := "span." + w.name + "." + s + "_s"; vals[n] <= 0 {
				t.Errorf("%s = %v, want > 0", n, vals[n])
			}
		}
		for _, n := range []string{"virtual_s", "cc.map_elements", "pfs.read_bytes", "trace_overhead_ratio", "host.cpu_s", "host.calib_s", "sim.timer_events_per_s"} {
			if vals[n] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, n, vals[n])
			}
		}
	}

	var recorded []span
	b, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &recorded); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, s := range recorded {
		seen[s.Workload+"."+s.Name] = true
		if s.End < s.Start || s.Parent >= i {
			t.Errorf("bad span %d: %+v", i, s)
		}
	}
	for w, names := range workloadSpans {
		for _, n := range names {
			if !seen[w+"."+n] {
				t.Errorf("span %s.%s not recorded", w, n)
			}
		}
	}
}

func TestProbesAlone(t *testing.T) {
	out := runBench(t, "-probes")
	for _, d := range probeDefs() {
		if !strings.Contains(out, " "+d.Name+" ") {
			t.Errorf("probe %s not printed", d.Name)
		}
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestVerdicts(t *testing.T) {
	wall := endToEnd[0]
	st := func(xs ...float64) stat { return newStat(wall, xs) }
	for _, c := range []struct {
		name string
		a, b stat
		want string
	}{
		{"within bound", st(1, 1.01, 0.99, 1, 1), st(1.05, 1.06, 1.04, 1.05, 1.05), "same"},
		{"beyond bound", st(1, 1.01, 0.99, 1, 1), st(1.4, 1.41, 1.39, 1.4, 1.4), "worse"},
		{"better", st(1, 1.01, 0.99, 1, 1), st(0.5, 0.51, 0.49, 0.5, 0.5), "same"},
		{"too wide to tell", st(1, 1.3, 0.7, 1, 1.2), st(1.05, 1.3, 0.8, 1.05, 1.2), "unresolved"},
		{"wide but every run better", st(1, 1.3, 0.7, 1, 1.2), st(0.5, 0.6, 0.4, 0.5, 0.5), "same"},
	} {
		if got := verdict(wall, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	virt := endToEnd[driverEndToEnd]
	if got := verdict(virt, newStat(virt, []float64{2}), newStat(virt, []float64{2.0000001})); got != "worse" {
		t.Errorf("exact metric that rose: verdict %q, want worse", got)
	}
}
