package pfs

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// runRead performs one striped read on a fresh FS (optionally traced and with
// OST 1 straggling) and returns the file system for inspection.
func runRead(t *testing.T, ot *obs.Tracer, slowFactor float64) *FS {
	t.Helper()
	env, fs := testFS(Params{NumOSTs: 4, OSTBandwidth: 1e6, OSTLatency: 1e-4, DefaultStripeSize: 1 << 10})
	if ot != nil {
		fs.SetObs(ot)
	}
	if slowFactor > 1 {
		fs.SlowOST(1, slowFactor)
	}
	f := fs.Create("t", NewSynthBackend(1<<22, func(int64, []byte) {}), 4, 0, 0)
	w := fs.Create("w", NewMemBackend(0), 4, 0, 0)
	env.Spawn("c", func(p *sim.Proc) {
		cl := fs.Client(p, 0, nil)
		buf := make([]byte, 1<<20)
		cl.Read(f, buf, 0)
		cl.Write(w, buf, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// With a tracer installed, read and write latencies land in the
// pfs_read_seconds / pfs_write_seconds histograms.
func TestClientLatencyHistograms(t *testing.T) {
	ot := obs.New()
	runRead(t, ot, 0)
	reg := ot.Metrics()
	for _, name := range []string{"pfs_read_seconds", "pfs_write_seconds"} {
		h := reg.FindHistogram(name)
		if h == nil {
			t.Fatalf("%s not created", name)
		}
		q := h.Quantile(0.5)
		if math.IsNaN(q) || q <= 0 {
			t.Fatalf("%s p50 = %g, want > 0", name, q)
		}
	}
}

// Without a tracer the request path must not create histograms (the Observe
// handles stay nil and the registry is never touched).
func TestNoObsNoHistograms(t *testing.T) {
	fs := runRead(t, nil, 0)
	if fs.obs != nil {
		t.Fatal("obs installed unexpectedly")
	}
}

// AppendOSTReadLatency reports per-OST mean read latency; a straggling OST's mean
// must stand out from its healthy peers.
func TestOSTReadLatency(t *testing.T) {
	fs := runRead(t, nil, 0)
	lat := fs.AppendOSTReadLatency(nil)
	if len(lat) != 4 {
		t.Fatalf("%d OSTs, want 4", len(lat))
	}
	for i, v := range lat {
		if v <= 0 {
			t.Fatalf("ost %d mean latency %g, want > 0 (all OSTs served reads)", i, v)
		}
	}

	slow := runRead(t, nil, 50).AppendOSTReadLatency(nil)
	for i, v := range slow {
		if i == 1 {
			continue
		}
		if slow[1] < 5*v {
			t.Fatalf("straggling ost mean %g not well above healthy ost %d mean %g", slow[1], i, v)
		}
	}
}

// An FS that never served a read reports zero means, not NaN.
func TestOSTReadLatencyIdle(t *testing.T) {
	_, fs := testFS(Params{NumOSTs: 3})
	for i, v := range fs.AppendOSTReadLatency(nil) {
		if v != 0 {
			t.Fatalf("idle ost %d latency %g, want 0", i, v)
		}
	}
}
