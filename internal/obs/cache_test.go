package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/jsonl"
	"repro/internal/obs/decision"
)

// cacheFloats are the values a float render cache keyed on anything but the
// bits gets wrong: -0 and +0 are == and print apart, NaNs are == to nothing
// (and carry payloads that all print "NaN"), and the infinities and
// subnormals sit at the edges of the shortest form.
var cacheFloats = []float64{
	0, math.Copysign(0, -1),
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000000),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -2.2250738585072014e-308, 1, 0.1, 1.25,
}

// cacheFloat draws the next value of a stream whose values mostly repeat,
// as a run's times and cumulative OST busy times do.
func cacheFloat(r *rand.Rand, prev float64) float64 {
	switch r.Intn(6) {
	case 0, 1:
		return prev
	case 2:
		return cacheFloats[r.Intn(len(cacheFloats))]
	case 3:
		return math.Float64frombits(r.Uint64())
	default:
		return float64(r.Intn(4096)) / 64
	}
}

// checkCachedSinks renders pts through a SeriesSink and evs and recs,
// interleaved, through a JSONLSink, and wants the bytes of the uncached
// oracles AppendSeriesJSON, AppendEventJSON and decision.AppendJSON.
func checkCachedSinks(t *testing.T, pts []SeriesPoint, evs []Event, recs []decision.Record) {
	t.Helper()
	var got, want bytes.Buffer
	ser, ow := NewSeriesSink(&got), jsonl.NewWriter(&want, SeriesSchema)
	for _, p := range pts {
		ser.Sample(p)
		ow.Line(AppendSeriesJSON(nil, p))
	}
	if err := ser.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ow.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("SeriesSink wrote\n%s\nAppendSeriesJSON renders\n%s", got.Bytes(), want.Bytes())
	}

	got.Reset()
	want.Reset()
	ev, ow := NewJSONLSink(&got), jsonl.NewWriter(&want, EventSchema)
	for i := range max(len(evs), len(recs)) {
		if i < len(evs) {
			ev.Emit(evs[i])
			ow.Line(AppendEventJSON(nil, evs[i]))
		}
		if i < len(recs) {
			ev.EmitDecision(recs[i])
			ow.Line(decision.AppendJSON(nil, recs[i]))
		}
	}
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ow.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("JSONLSink wrote\n%s\nAppendEventJSON and decision.AppendJSON render\n%s", got.Bytes(), want.Bytes())
	}
}

// cacheEvent is an event of one of the line shapes, at time t.
func cacheEvent(i int, t, v float64) Event {
	switch i % 4 {
	case 0:
		return Event{E: "span", ID: i + 1, T: t, Dur: v, PID: 1, TID: 2, Name: "read", Cat: "pfs"}
	case 1:
		return Event{E: "instant", T: t, Name: "deadline-drop", Cat: "sched", Attrs: []Attr{F("v", v)}}
	case 2:
		return Event{E: "counter", T: t, Name: "cluster_queue_depth", Value: v}
	default:
		return Event{E: "attr", ID: i, Attrs: []Attr{S("err", "boom")}}
	}
}

// cacheRecord is a decision record of one of the line shapes, at time t.
func cacheRecord(i int, t float64) decision.Record {
	if i%2 == 0 {
		return decision.Record{Round: i, T: t, Policy: "fifo", Outcome: decision.Round, Free: 4, FreeRanks: "0-3", Pending: 2}
	}
	return decision.Record{Round: i, T: t, Policy: "fifo", Job: "sum-1", Seq: 1, Outcome: decision.Skip,
		Reason: decision.HeadOfLine, BlockedBy: "sum-0", BlockedBySeq: 0, Width: 8, Submit: t / 2}
}

// TestCachedSinksMatchOracles: over random streams of repeating values — ±0,
// NaN payloads, ±Inf and subnormals among them, in runs, with one OST moving
// at a time as well as many — the sinks that render through a FloatCache
// write the bytes of the pure appenders. Every tenth stream is long enough to
// cross several of each sink's batches.
func TestCachedSinksMatchOracles(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		steps := 40
		if trial%10 == 0 {
			steps = 3 * lineBatchLen
		}
		var (
			pts  []SeriesPoint
			evs  []Event
			recs []decision.Record
			now  float64
		)
		ost := make([]float64, 1+r.Intn(12))
		for i := 0; i < steps; i++ {
			now = cacheFloat(r, now)
			switch r.Intn(4) {
			case 0: // one OST moves
				j := r.Intn(len(ost))
				ost[j] = cacheFloat(r, ost[j])
			case 1: // every OST may move
				for j := range ost {
					ost[j] = cacheFloat(r, ost[j])
				}
			}
			if r.Intn(20) == 0 { // the OST count changes
				ost = append(ost, cacheFloat(r, 0))[:1+r.Intn(len(ost)+1)]
			}
			pts = append(pts, SeriesPoint{Round: i, T: now, QueueDepth: i % 5, RanksBusy: i % 3, RanksTotal: 4,
				OSTBusy: append([]float64(nil), ost...),
				Classes: []ClassWait{{Class: "batch", N: i, P50: cacheFloat(r, now), P99: now}}})
			evs = append(evs, cacheEvent(i, now, cacheFloat(r, now)))
			if r.Intn(2) == 0 {
				recs = append(recs, cacheRecord(i, now))
			}
		}
		checkCachedSinks(t, pts, evs, recs)
	}
}

// FuzzCachedSinksMatchOracles: the fuzzer drives the values. data[0] picks
// the OST count; every following 9 bytes set one float — slot 0 is the
// time, slot j the busy time of OST j-1 — and, when the control byte's top
// bit is set, emit a point, an event and a decision record.
func FuzzCachedSinksMatchOracles(f *testing.F) {
	step := func(ctl byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{ctl}, math.Float64bits(v))
	}
	seed := []byte{2}
	for i, v := range cacheFloats {
		seed = append(seed, step(byte(0x80|i%3), v)...)
		seed = append(seed, step(0x80, v)...)
	}
	f.Add(seed)
	f.Add(append(append([]byte{1}, step(0x81, 0)...), step(0x81, math.Copysign(0, -1))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nOST := 1 + int(data[0]%8)
		vals := make([]float64, 1+nOST)
		var (
			pts  []SeriesPoint
			evs  []Event
			recs []decision.Record
		)
		for b := data[1:]; len(b) >= 9; b = b[9:] {
			vals[int(b[0]&0x7f)%len(vals)] = math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))
			if b[0]&0x80 != 0 {
				i := len(pts)
				pts = append(pts, SeriesPoint{Round: i, T: vals[0], RanksTotal: 1,
					OSTBusy: append([]float64(nil), vals[1:]...)})
				evs = append(evs, cacheEvent(i, vals[0], vals[1]))
				recs = append(recs, cacheRecord(i, vals[0]))
			}
		}
		checkCachedSinks(t, pts, evs, recs)
	})
}
