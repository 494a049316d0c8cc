package experiments

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// legShot is what one leg of a figure measured, in the units the
// invariance test compares: times, which must scale, and everything else,
// which must not move.
type legShot struct {
	name string
	// Scaled by the unit.
	makespan float64
	stats    []float64 // every float64 field of cc.Stats, in field order
	rankTime []float64 // obs.RankTime's total per kind
	iterRead float64   // Figure 1's aggregator phase totals
	iterShuf float64
	profileT []float64 // the CPU profile's bucket starts
	// Unmoved.
	value    uint64  // the root's result, bit for bit
	counts   []int64 // every int64 field of cc.Stats, in field order
	traffic  [6]int64
	profile  []obs.CPUSample // with T zeroed
	skipped  uint64
	iterMeta [2]int64 // Figure 1's iteration count and bytes
}

func shoot(l leg, run legRun) legShot {
	s := legShot{name: l.name, makespan: run.makespan, value: math.Float64bits(run.root.Value)}
	st := reflect.ValueOf(run.stats)
	for i := 0; i < st.NumField(); i++ {
		switch f := st.Field(i); f.Kind() {
		case reflect.Float64:
			s.stats = append(s.stats, f.Float())
		case reflect.Int64:
			s.counts = append(s.counts, f.Int())
		default:
			panic(fmt.Sprintf("cc.Stats.%s: a %s, neither a time nor a count", st.Type().Field(i).Name, f.Kind()))
		}
	}
	rt := run.cl.RankTime()
	for _, k := range []obs.Kind{obs.Compute, obs.Sys, obs.WaitIO, obs.WaitComm} {
		s.rankTime = append(s.rankTime, rt.Total(k))
	}
	for _, p := range rt.CPUProfile(run.makespan) {
		s.profileT = append(s.profileT, p.T)
		p.T = 0
		s.profile = append(s.profile, p)
	}
	net, fs := run.cl.World().Net(), run.cl.FS()
	s.traffic = [6]int64{net.Messages, net.BytesOnWire, net.DegradedMessages, fs.BytesRead, fs.Requests, fs.Timeouts}
	s.skipped = run.cl.Env().SkippedWakeups()
	if is, ok := l.io.Params.Obs.(*iterStats); ok {
		s.iterRead, s.iterShuf = is.readSeconds, is.shuffleSeconds
		s.iterMeta = [2]int64{int64(is.iterations), is.bytes}
	}
	return s
}

// runInUnit runs a figure with its machines and time inputs counting time
// in units of k seconds, and returns its table and every leg it ran.
func runInUnit(t *testing.T, run func(Config) (*Table, error), k float64) (*Table, []legShot) {
	t.Helper()
	var shots []legShot
	cfg := Config{Quick: true, timeUnit: k, observe: func(l leg, r legRun) { shots = append(shots, shoot(l, r)) }}
	tab, err := run(cfg)
	if err != nil {
		t.Fatalf("unit %g: %v", k, err)
	}
	return tab, shots
}

// TestTimeScaleInvariance: virtual time is built from sums, maxima and
// comparisons of the cost model's constants, products by costs and quotients
// by rates, and every such operation commutes with scaling by a power of two.
// So a figure whose machines count time in units of k seconds
// (cluster.Spec.TimeUnit, with the figure's own time inputs in that unit
// too) must run every leg through the same events in the same order: each
// makespan, each cc.Stats seconds field, each rank-time total and bucket and
// each calibration exactly k times its value at k = 1, and every count, every
// result and every ratio the figure prints identical. A time charged from
// anything but the model (a literal, an absolute bucket or epsilon, a constant
// left out of Scale) breaks it, and the failure names the figure.
func TestTimeScaleInvariance(t *testing.T) {
	for _, r := range All() {
		switch r.ID {
		case "fig1", "fig2", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "faults":
		default:
			continue
		}
		t.Run(r.ID, func(t *testing.T) {
			tab1, base := runInUnit(t, r.Run, 1)
			if len(base) == 0 {
				t.Fatalf("%s ran no leg", r.ID)
			}
			for _, k := range []float64{0.5, 2, 8} {
				tab, shots := runInUnit(t, r.Run, k)
				if len(shots) != len(base) {
					t.Fatalf("%s at unit %g ran %d legs, at 1 %d", r.ID, k, len(shots), len(base))
				}
				for i := range base {
					if err := scaledShot(base[i], shots[i], k); err != nil {
						t.Fatalf("%s at unit %g, leg %d (%s): %v", r.ID, k, i, base[i].name, err)
					}
				}
				if err := sameRatios(tab1, tab); err != nil {
					t.Fatalf("%s at unit %g: %v", r.ID, k, err)
				}
			}
		})
	}
}

// scaledShot checks got, measured in units of k, against want, measured at 1.
func scaledShot(want, got legShot, k float64) error {
	times := func(what string, w, g []float64) error {
		if len(w) != len(g) {
			return fmt.Errorf("%s: %d values at 1, %d at %g", what, len(w), len(g), k)
		}
		for i := range w {
			if g[i] != k*w[i] {
				return fmt.Errorf("%s[%d] = %.17g, want %g × %.17g = %.17g", what, i, g[i], k, w[i], k*w[i])
			}
		}
		return nil
	}
	for _, c := range []struct {
		what string
		w, g []float64
	}{
		{"makespan", []float64{want.makespan}, []float64{got.makespan}},
		{"cc.Stats seconds", want.stats, got.stats},
		{"rank time", want.rankTime, got.rankTime},
		{"Figure 1 read/shuffle seconds", []float64{want.iterRead, want.iterShuf}, []float64{got.iterRead, got.iterShuf}},
		{"CPU profile bucket starts", want.profileT, got.profileT},
	} {
		if err := times(c.what, c.w, c.g); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		what string
		w, g any
	}{
		{"the root's result bits", want.value, got.value},
		{"cc.Stats counts", want.counts, got.counts},
		{"messages, wire bytes, degraded messages, bytes read, requests, timeouts", want.traffic, got.traffic},
		{"CPU profile percentages", want.profile, got.profile},
		{"skipped wake-ups", want.skipped, got.skipped},
		{"Figure 1 iterations and bytes", want.iterMeta, got.iterMeta},
	} {
		if !reflect.DeepEqual(c.w, c.g) {
			return fmt.Errorf("%s: %v at 1, %v at %g", c.what, c.w, c.g, k)
		}
	}
	return nil
}

var (
	// secondsRe matches a duration printed in a note, e.g. "0.16s".
	secondsRe = regexp.MustCompile(`\b\d+\.\d+s\b`)
	numberRe  = regexp.MustCompile(`\d[\d.]*(e[+-]?\d+)?`)
)

// sameRatios compares two renderings of a figure, in two units, on what
// does not carry the unit: every cell outside a seconds column, every note
// with its durations masked, and the chart's shape (every mark, with axis
// and bar labels masked).
func sameRatios(want, got *Table) error {
	if !reflect.DeepEqual(want.Headers, got.Headers) || len(want.Rows) != len(got.Rows) || len(want.Notes) != len(got.Notes) {
		return fmt.Errorf("table shape: %q with %d rows and %d notes, then %q with %d and %d",
			want.Headers, len(want.Rows), len(want.Notes), got.Headers, len(got.Rows), len(got.Notes))
	}
	for i, row := range want.Rows {
		for j, cell := range row {
			if !strings.Contains(want.Headers[j], "(s)") && got.Rows[i][j] != cell {
				return fmt.Errorf("row %d, %q: %q, then %q", i, want.Headers[j], cell, got.Rows[i][j])
			}
		}
	}
	for i, n := range want.Notes {
		if w, g := secondsRe.ReplaceAllString(n, "Ts"), secondsRe.ReplaceAllString(got.Notes[i], "Ts"); w != g {
			return fmt.Errorf("note %d: %q, then %q", i, n, got.Notes[i])
		}
	}
	if w, g := chartShape(want.Chart), chartShape(got.Chart); !reflect.DeepEqual(w, g) {
		return fmt.Errorf("chart:\n%s\nthen:\n%s", want.Chart, got.Chart)
	}
	return nil
}

// chartShape is a chart with its numbers masked and each line's label (what
// precedes the axis) trimmed, so a label's width cannot shift the plot.
func chartShape(chart string) []string {
	var out []string
	for _, line := range strings.Split(chart, "\n") {
		line = numberRe.ReplaceAllString(line, "N")
		if i := strings.IndexByte(line, '|'); i >= 0 {
			line = strings.TrimSpace(line[:i]) + line[i:]
		}
		out = append(out, strings.TrimSpace(line))
	}
	return out
}
