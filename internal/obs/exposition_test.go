package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// expositionRegistry holds a plain and a labeled family of each kind, and
// every case Dump treats specially: label keys declared out of
// sorted order, children created out of order, a label value that needs
// escaping, a family past the cardinality cap (so the overflow counter is a
// line of its own), a labeled family declared but never given a child, and a
// histogram nobody has observed into.
func expositionRegistry() *Registry {
	r := NewRegistry()
	r.SetLabelCap(3)
	r.Counter("requests_total").Add(42)
	jobs := r.CounterVec("jobs_total", "tenant", "class")
	jobs.With("zeta", "batch").Add(3)
	jobs.With("acme", "interactive").Inc()
	jobs.With("acme", "batch").Add(2.5)
	jobs.With("late", "batch").Inc() // fourth label set of a family capped at three
	r.Gauge("queue_depth").Set(7)
	busy := r.GaugeVec("ost_busy_seconds", "ost")
	busy.With("a\"b\\c\nd").Set(0.25)
	busy.With("10").Set(1e-9)
	busy.With("2").Set(1.5e6)
	r.GaugeVec("declared_only", "k")
	wait := r.Histogram("wait_seconds", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 0.5, 100} {
		wait.Observe(v)
	}
	r.Histogram("never_observed_seconds")
	read := r.HistogramVec("read_seconds", []float64{0.001, 0.1}, "tenant", "op")
	read.With("zeta", "read").Observe(0.01)
	read.With("acme", "write").Observe(5)
	read.With("acme", "read").Observe(0.0005)
	read.With("acme", "read").Observe(0.05)
	return r
}

// TestExpositionGolden pins Dump byte for byte. The golden was captured from
// the registry that kept plain and labeled metrics in separate maps, so it
// holds the one-family registry to that output. Regenerate with
// `go test ./internal/obs -run ExpositionGolden -args -update` only for an
// intended format change.
func TestExpositionGolden(t *testing.T) {
	got := []byte(expositionRegistry().Dump())
	path := filepath.Join("testdata", "exposition.golden.dump.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run ExpositionGolden -args -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Dump drifted from its golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
