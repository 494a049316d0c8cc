package pfs

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/layout"
	"repro/internal/sim"
)

func testFS(p Params) (*sim.Env, *FS) {
	env := sim.NewEnv()
	return env, New(env, p)
}

func TestMemBackendRoundTrip(t *testing.T) {
	m := NewMemBackend(8)
	m.WriteAt([]byte{1, 2, 3}, 6) // grows to 9
	if m.Size() != 9 {
		t.Fatalf("size = %d, want 9", m.Size())
	}
	got := make([]byte, 5)
	m.ReadAt(got, 5)
	want := []byte{0, 1, 2, 3, 0} // last byte past EOF -> zero
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// ReadAt clears nothing up front: it must overwrite every byte of a dirty
// destination, with data up to EOF and zeros from there on.
func TestMemBackendReadPastEOFZeros(t *testing.T) {
	m := NewMemBackend(2)
	m.WriteAt([]byte{9, 8}, 0)
	cases := []struct {
		off  int64
		want []byte
	}{
		{0, []byte{9, 8}},       // wholly inside
		{1, []byte{8, 0, 0, 0}}, // across EOF
		{2, []byte{0, 0, 0}},    // starting at EOF
		{5, []byte{0, 0}},       // wholly past EOF
	}
	for _, c := range cases {
		got := bytes.Repeat([]byte{0xAA}, len(c.want))
		m.ReadAt(got, c.off)
		if !bytes.Equal(got, c.want) {
			t.Fatalf("ReadAt(off %d) = %v, want %v", c.off, got, c.want)
		}
	}
}

func TestSynthBackendDeterministic(t *testing.T) {
	s := NewSynthBackend(1<<30, func(off int64, p []byte) {
		for i := range p {
			p[i] = byte(off + int64(i))
		}
	})
	a, b := make([]byte, 16), make([]byte, 16)
	s.ReadAt(a, 12345)
	s.ReadAt(b, 12345)
	if !bytes.Equal(a, b) {
		t.Fatal("synthetic reads not deterministic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("write to synthetic backend did not panic")
		}
	}()
	s.WriteAt([]byte{1}, 0)
}

func TestFileWriteReadRoundTrip(t *testing.T) {
	env, fs := testFS(Params{NumOSTs: 4, DefaultStripeSize: 16})
	f := fs.Create("t", NewMemBackend(0), 4, 0, 0)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i * 3)
	}
	got := make([]byte, 100)
	env.Spawn("c", func(p *sim.Proc) {
		cl := fs.Client(p, 0, nil)
		cl.Write(f, data, 7)
		cl.Read(f, got, 7)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read != written")
	}
	if fs.BytesRead != 100 || fs.BytesWritten != 100 {
		t.Fatalf("stats: read %d written %d", fs.BytesRead, fs.BytesWritten)
	}
}

// A read striped over k OSTs should be nearly k times faster than the same
// read confined to one OST.
func TestStripingParallelism(t *testing.T) {
	readTime := func(stripeCount int) float64 {
		env, fs := testFS(Params{NumOSTs: 8, OSTBandwidth: 1e6, OSTLatency: 1e-4, DefaultStripeSize: 1 << 10})
		f := fs.Create("t", NewSynthBackend(1<<22, func(int64, []byte) {}), stripeCount, 0, 0)
		var done float64
		env.Spawn("c", func(p *sim.Proc) {
			cl := fs.Client(p, 0, nil)
			buf := make([]byte, 1<<20) // 1 MB over 1e6 B/s = ~1s serial
			cl.Read(f, buf, 0)
			done = p.Now()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	one, eight := readTime(1), readTime(8)
	if eight >= one/4 {
		t.Fatalf("8-way stripe read %g, 1-way %g: expected ≥4x speedup", eight, one)
	}
}

// Two clients reading stripes on the same OST must queue.
func TestOSTContention(t *testing.T) {
	env, fs := testFS(Params{NumOSTs: 1, OSTBandwidth: 1e6, OSTLatency: 0, DefaultStripeSize: 1 << 20})
	f := fs.Create("t", NewSynthBackend(1<<22, func(int64, []byte) {}), 1, 0, 0)
	ends := make([]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("c", func(p *sim.Proc) {
			cl := fs.Client(p, i, nil)
			buf := make([]byte, 1<<20)
			cl.Read(f, buf, 0)
			ends[i] = p.Now()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	fast, slow := ends[0], ends[1]
	if fast > slow {
		fast, slow = slow, fast
	}
	if slow < 2*fast*0.9 {
		t.Fatalf("contended reads finished at %g and %g; second should take ~2x", fast, slow)
	}
}

// Many small requests pay per-request latency; one large request does not —
// the phenomenon that motivates collective I/O.
func TestSmallRequestPenalty(t *testing.T) {
	env, fs := testFS(Params{NumOSTs: 4, OSTBandwidth: 1e9, OSTLatency: 1e-3, DefaultStripeSize: 1 << 20})
	f := fs.Create("t", NewSynthBackend(1<<24, func(int64, []byte) {}), 4, 0, 0)
	var smallTime, bigTime float64
	env.Spawn("small", func(p *sim.Proc) {
		cl := fs.Client(p, 0, nil)
		buf := make([]byte, 1024)
		for i := 0; i < 100; i++ {
			cl.Read(f, buf, int64(i)*(4<<20)) // scattered
		}
		smallTime = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env2, fs2 := testFS(Params{NumOSTs: 4, OSTBandwidth: 1e9, OSTLatency: 1e-3, DefaultStripeSize: 1 << 20})
	f2 := fs2.Create("t", NewSynthBackend(1<<24, func(int64, []byte) {}), 4, 0, 0)
	env2.Spawn("big", func(p *sim.Proc) {
		cl := fs2.Client(p, 0, nil)
		buf := make([]byte, 100*1024)
		cl.Read(f2, buf, 0)
		bigTime = p.Now()
	})
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	if smallTime < 10*bigTime {
		t.Fatalf("100 small reads (%g) should be ≫ one big read (%g)", smallTime, bigTime)
	}
}

func TestReadAsyncOverlap(t *testing.T) {
	env, fs := testFS(Params{NumOSTs: 1, OSTBandwidth: 1e6, OSTLatency: 0, DefaultStripeSize: 1 << 20})
	f := fs.Create("t", NewSynthBackend(1<<22, func(int64, []byte) {}), 1, 0, 0)
	var issueAt, doneAt float64
	env.Spawn("c", func(p *sim.Proc) {
		cl := fs.Client(p, 0, nil)
		buf := make([]byte, 1<<20) // ~1s of OST time
		done := cl.ReadSparseAsync(f, buf, 0, nil)
		issueAt = p.Now()
		p.Sleep(0.25) // overlapped "compute"
		cl.AwaitIO(done)
		doneAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if issueAt > 0.01 {
		t.Fatalf("ReadSparseAsync blocked the client until %g", issueAt)
	}
	if doneAt < 1.0 || doneAt > 1.2 {
		t.Fatalf("async read completed at %g, want ~1.05", doneAt)
	}
}

func TestStripePlacementRoundRobin(t *testing.T) {
	env, fs := testFS(Params{NumOSTs: 4, OSTBandwidth: 1e6, OSTLatency: 0.1, DefaultStripeSize: 100})
	f := fs.Create("t", NewSynthBackend(1000, func(int64, []byte) {}), 2, 0, 1)
	env.Spawn("c", func(p *sim.Proc) {
		cl := fs.Client(p, 0, nil)
		buf := make([]byte, 400) // stripes 0..3 -> OSTs 1,2,1,2
		cl.Read(f, buf, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	busy := fs.AppendOSTBusyTimes(nil)
	if busy[0] != 0 || busy[3] != 0 {
		t.Fatalf("OSTs outside the stripe set were used: %v", busy)
	}
	if busy[1] == 0 || busy[2] == 0 {
		t.Fatalf("round-robin OSTs unused: %v", busy)
	}
}

func TestZeroLengthIO(t *testing.T) {
	env, fs := testFS(Params{})
	f := fs.Create("t", NewMemBackend(0), 1, 0, 0)
	env.Spawn("c", func(p *sim.Proc) {
		cl := fs.Client(p, 0, nil)
		if end := cl.Read(f, nil, 0); end != 0 {
			t.Errorf("zero read advanced time to %g", end)
		}
		cl.Write(f, nil, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.Requests != 0 {
		t.Fatalf("zero-length I/O issued %d requests", fs.Requests)
	}
}

func TestCreateValidation(t *testing.T) {
	_, fs := testFS(Params{NumOSTs: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("stripe count > OSTs did not panic")
		}
	}()
	fs.Create("bad", NewMemBackend(0), 5, 0, 0)
}

func TestDefaultsApplied(t *testing.T) {
	p := Params{}.Defaults()
	if p.NumOSTs != 156 || p.OSTBandwidth != 250e6 || p.DefaultStripeSize != 4<<20 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

// Float pattern written through binary encoding must read back exactly —
// the property ncfile depends on.
func TestBinaryFloatRoundTripThroughFS(t *testing.T) {
	env, fs := testFS(Params{NumOSTs: 2, DefaultStripeSize: 64})
	f := fs.Create("t", NewMemBackend(0), 2, 0, 0)
	vals := []float64{3.14, -2.71, 0, 1e300}
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	got := make([]byte, len(buf))
	env.Spawn("c", func(p *sim.Proc) {
		cl := fs.Client(p, 0, nil)
		cl.Write(f, buf, 128)
		cl.Read(f, got, 128)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if g := math.Float64frombits(binary.LittleEndian.Uint64(got[8*i:])); g != v {
			t.Fatalf("val[%d] = %g, want %g", i, g, v)
		}
	}
}

// A straggler OST must slow reads that touch it and leave others unaffected.
func TestSlowOSTInjection(t *testing.T) {
	readTime := func(slowFactor float64) float64 {
		env, fs := testFS(Params{NumOSTs: 2, OSTBandwidth: 1e6, OSTLatency: 0, DefaultStripeSize: 1 << 10})
		if slowFactor > 1 {
			fs.SlowOST(0, slowFactor)
		}
		f := fs.Create("t", NewSynthBackend(1<<22, func(int64, []byte) {}), 2, 0, 0)
		var done float64
		env.Spawn("c", func(p *sim.Proc) {
			cl := fs.Client(p, 0, nil)
			buf := make([]byte, 1<<20)
			cl.Read(f, buf, 0)
			done = p.Now()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	normal, degraded := readTime(1), readTime(4)
	if degraded < normal*1.8 {
		t.Fatalf("4x straggler on half the stripes: %g vs %g, want ≥1.8x", degraded, normal)
	}
	// Restoring factor 1 heals it.
	env, fs := testFS(Params{NumOSTs: 2})
	fs.SlowOST(0, 8)
	fs.SlowOST(0, 1)
	if fs.slowFactorAt(0, env.Now()) != 1 {
		t.Fatal("SlowOST(1) did not restore normal speed")
	}
	// Sub-1 factors clamp to 1 (no speedups from "negative noise").
	fs.SlowOST(1, 0.25)
	if fs.slowFactorAt(1, env.Now()) != 1 {
		t.Fatal("factor < 1 not clamped")
	}
}

// A read observes the store when it is issued: Read and ReadSparseAsync take
// the bytes before the client's first yield and ChargeRead/ChargeReadAsync charge
// the same transfer afterwards, so a write that lands while the request is in
// flight is not seen — and the charge-only twins cost exactly what the reads
// that move bytes do.
func TestReadObservesStoreAtIssueAndChargeTwinsMatch(t *testing.T) {
	type outcome struct {
		got            []byte
		end            float64
		bytesRead, req int64
	}
	run := func(async, chargeOnly bool) outcome {
		env, fs := testFS(Params{NumOSTs: 2, OSTBandwidth: 1e6, DefaultStripeSize: 64})
		mem := NewMemBackend(0)
		f := fs.Create("t", mem, 2, 0, 0)
		mem.WriteAt(bytes.Repeat([]byte{1}, 200), 0)
		var out outcome
		env.Spawn("reader", func(p *sim.Proc) {
			cl := fs.Client(p, 0, nil)
			out.got = make([]byte, 200)
			switch {
			case async && chargeOnly:
				cl.AwaitIO(cl.ChargeReadAsync(f, 0, 200))
			case async:
				cl.AwaitIO(cl.ReadSparseAsync(f, out.got, 0, []layout.Run{{Offset: 0, Length: 200}}))
			case chargeOnly:
				cl.ChargeRead(f, 0, 200)
			default:
				cl.Read(f, out.got, 0)
			}
			out.end = p.Now()
		})
		env.Spawn("writer", func(p *sim.Proc) {
			p.Sleep(1e-6) // after the issue, long before the data arrives
			mem.WriteAt(bytes.Repeat([]byte{2}, 200), 0)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		out.bytesRead, out.req = fs.BytesRead, fs.Requests
		return out
	}
	for _, async := range []bool{false, true} {
		full, charged := run(async, false), run(async, true)
		if !bytes.Equal(full.got, bytes.Repeat([]byte{1}, 200)) {
			t.Errorf("async=%v: read saw a write that landed while it was in flight", async)
		}
		if full.end < 1e-4 {
			t.Errorf("async=%v: read done at %g, before the writer could interleave", async, full.end)
		}
		if !bytes.Equal(charged.got, make([]byte, 200)) {
			t.Errorf("async=%v: charge-only read moved data", async)
		}
		if full.end != charged.end || full.bytesRead != charged.bytesRead || full.req != charged.req {
			t.Errorf("async=%v: read (end %g, %d B, %d requests) and its charge-only twin (end %g, %d B, %d requests) differ",
				async, full.end, full.bytesRead, full.req, charged.end, charged.bytesRead, charged.req)
		}
	}
}
