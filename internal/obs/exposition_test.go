package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// expositionRegistry holds a plain and a labeled family of each kind, and
// every case the two renderers treat specially: label keys declared out of
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

func renderBoth(t *testing.T, r *Registry) (dump, prom []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return []byte(r.Dump()), buf.Bytes()
}

// TestExpositionGolden pins Dump and WriteOpenMetrics byte for byte. The
// goldens were captured from the registry that kept plain and labeled metrics
// in separate maps, so they hold the one-family registry to that output.
// Regenerate with `go test ./internal/obs -run ExpositionGolden -args -update`
// only for an intended format change.
func TestExpositionGolden(t *testing.T) {
	dump, prom := renderBoth(t, expositionRegistry())
	if err := lintPromText(prom); err != nil {
		t.Fatalf("%v\n%s", err, prom)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"exposition.golden.dump.txt", dump},
		{"exposition.golden.prom.txt", prom},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/obs -run ExpositionGolden -args -update` to create)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from its golden\ngot:\n%s\nwant:\n%s", g.file, g.got, want)
		}
	}
}

// TestSnapshotRendersTheSameAndStaysIndependent: a snapshot renders the bytes
// of the registry it was taken from, keeps rendering them whatever happens to
// the live registry afterwards, and — cap and overflow counter included — is
// a registry of its own.
func TestSnapshotRendersTheSameAndStaysIndependent(t *testing.T) {
	r := expositionRegistry()
	dump, prom := renderBoth(t, r)
	snap := r.Snapshot()
	if d, p := renderBoth(t, snap); !bytes.Equal(d, dump) || !bytes.Equal(p, prom) {
		t.Fatalf("snapshot renders differently from its source\nsnapshot:\n%s\nsource:\n%s", d, dump)
	}

	r.Counter("requests_total").Inc()
	r.CounterVec("jobs_total", "tenant", "class").With("acme", "batch").Inc()
	r.Gauge("queue_depth").Set(8)
	r.GaugeVec("ost_busy_seconds", "ost").With("2").Set(0)
	r.GaugeVec("declared_only", "k").With("now").Set(1)
	r.Histogram("wait_seconds").Observe(0.5)
	r.HistogramVec("read_seconds", nil, "tenant", "op").With("acme", "read").Observe(0.05)
	r.Counter("created_later").Inc()
	if d, p := renderBoth(t, snap); !bytes.Equal(d, dump) || !bytes.Equal(p, prom) {
		t.Fatalf("snapshot changed with the live registry:\n%s", d)
	}
	liveDump, liveProm := renderBoth(t, r)
	if bytes.Equal(liveDump, dump) {
		t.Fatal("the live registry did not change")
	}

	// The other direction: the snapshot's capped family drops into the
	// snapshot's own overflow counter and leaves the live registry alone.
	if snap.CounterVec("jobs_total", "tenant", "class").With("later", "batch") != nil {
		t.Fatal("snapshot lost the cardinality cap")
	}
	snap.Gauge("queue_depth").Set(-1)
	if v, _ := snap.CounterValue(LabelsDroppedCounter); v != 2 {
		t.Fatalf("snapshot overflow counter = %v, want 2", v)
	}
	if d, p := renderBoth(t, r); !bytes.Equal(d, liveDump) || !bytes.Equal(p, liveProm) {
		t.Fatal("writing to a snapshot reached the live registry")
	}
}
