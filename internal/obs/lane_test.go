package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs/decision"
)

// failingWriter accepts n bytes, then fails every write: with errFirst the
// first time, and with errLater after that.
type failingWriter struct {
	n      int
	failed bool
}

var errFirst, errLater = errors.New("device full"), errors.New("a later error")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	if w.failed {
		return 0, errLater
	}
	w.failed = true
	return 0, errFirst
}

// laneStream is n events, every third followed by a decision record, and a
// point sampled every other event: many batches of both sinks.
type laneStream struct {
	events []Event
	recs   []decision.Record
	pts    []SeriesPoint
}

func newLaneStream(n int) *laneStream {
	s := &laneStream{}
	for i := 0; i < n; i++ {
		t := float64(i) / 8
		s.events = append(s.events, cacheEvent(i, t, float64(i%7)))
		if i%3 == 0 {
			s.recs = append(s.recs, cacheRecord(i, t))
		}
		if i%2 == 0 {
			ost := make([]float64, 16)
			ost[i%len(ost)] = t
			s.pts = append(s.pts, SeriesPoint{Round: i, T: t, QueueDepth: i % 5, RanksTotal: 4, OSTBusy: ost,
				Classes: []ClassWait{{Class: "batch", N: i, P50: t, P99: 2 * t}}})
		}
	}
	return s
}

// emit hands the stream to the sinks. Each point's OST busy times are
// sampled from one slice the stream reuses, as the cluster's are.
func (s *laneStream) emit(ev *JSONLSink, ser *SeriesSink) {
	var ost [16]float64
	for i := range s.events {
		ev.Emit(s.events[i])
		if i%3 == 0 {
			ev.EmitDecision(s.recs[i/3])
		}
		if i%2 == 0 {
			p := s.pts[i/2]
			copy(ost[:], p.OSTBusy)
			p.OSTBusy = ost[:]
			ser.Sample(p)
			clear(ost[:])
		}
	}
}

// TestSinkCloseReportsTheFirstWriteError: a writer that fails mid-run makes
// Close return its first error, however many batches rendered after it, at
// one P (the batches render on the caller) and at four (beside it).
func TestSinkCloseReportsTheFirstWriteError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		ew, sw := &failingWriter{n: 50 << 10}, &failingWriter{n: 30 << 10}
		ev, ser := NewJSONLSink(ew), NewSeriesSink(sw)
		newLaneStream(5000).emit(ev, ser)
		eerr, serr := ev.Close(), ser.Close()
		runtime.GOMAXPROCS(prev)
		if eerr != errFirst || serr != errFirst {
			t.Errorf("GOMAXPROCS=%d: JSONLSink.Close = %v, SeriesSink.Close = %v; want %v from both", procs, eerr, serr, errFirst)
		}
		if !ew.failed || !sw.failed {
			t.Errorf("GOMAXPROCS=%d: a writer never failed: the stream is too short for the test", procs)
		}
	}
}

// waitGoroutines fails unless the goroutine count falls back to base: a
// goroutine that has run its last deferred call may still be counted for a
// moment.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%s: %d goroutines, %d before the sinks", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSinksLeaveNoGoroutine: the sinks render beside the caller on
// goroutines that end with their batch, so the goroutine count is back to
// its start after Close, and also when a sink is dropped without Close.
func TestSinksLeaveNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	ev, ser := NewJSONLSink(io.Discard), NewSeriesSink(io.Discard)
	stream := newLaneStream(3000)
	stream.emit(ev, ser)
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ser.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "after Close")

	stream.emit(NewJSONLSink(io.Discard), NewSeriesSink(io.Discard))
	waitGoroutines(t, base, "sinks never closed")
}

// TestSinksAllocateNothingOnceWarm: once both batches of each sink exist, a
// line allocates nothing, rendered on the caller or beside it (where
// testing.AllocsPerRun, which pins one P, cannot look). The runtime may
// allocate a goroutine descriptor for a hand-off when it has no dead one to
// reuse (a busy host makes that likelier), so the bound is a quarter of the
// batches, far below one a line.
func TestSinksAllocateNothingOnceWarm(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		ev, ser := NewJSONLSink(io.Discard), NewSeriesSink(io.Discard)
		warm, stream := newLaneStream(4*lineBatchLen), newLaneStream(6000)
		warm.emit(ev, ser) // both batches of both sinks, and the line buffers
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		stream.emit(ev, ser)
		runtime.ReadMemStats(&m1)
		ev.Close()
		ser.Close()
		runtime.GOMAXPROCS(prev)
		lines := len(stream.events) + len(stream.recs)
		batches := lines/lineBatchLen + len(stream.pts)/pointBatchLen
		if got := m1.Mallocs - m0.Mallocs; got > uint64(batches/4) {
			t.Errorf("GOMAXPROCS=%d: %d allocations for %d lines and %d points in about %d batches", procs, got, lines, len(stream.pts), batches)
		}
	}
}

// TestSinksMatchOnAndOffTheCaller: the bytes do not depend on where the
// batches render, for streams that end on and between batch boundaries.
func TestSinksMatchOnAndOffTheCaller(t *testing.T) {
	for _, n := range []int{0, 1, lineBatchLen, 3*lineBatchLen + 5, 2000} {
		stream := newLaneStream(n)
		var ref [2][]byte
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			var eb, sb bytes.Buffer
			ev, ser := NewJSONLSink(&eb), NewSeriesSink(&sb)
			stream.emit(ev, ser)
			ev.Close()
			ser.Close()
			runtime.GOMAXPROCS(prev)
			if procs == 1 {
				ref = [2][]byte{eb.Bytes(), sb.Bytes()}
				continue
			}
			for i, got := range [][]byte{eb.Bytes(), sb.Bytes()} {
				if !bytes.Equal(got, ref[i]) {
					t.Fatalf("n=%d: %s at GOMAXPROCS=%d differs from GOMAXPROCS=1", n, []string{"event log", "series"}[i], procs)
				}
			}
		}
	}
}

// TestJSONLSinkBatchesByRecords: a burst of decision records fills a batch at
// recBatchLen records, before lineBatchLen lines, and the lines keep their
// order across the early flip.
func TestJSONLSinkBatchesByRecords(t *testing.T) {
	var got, want bytes.Buffer
	ev := NewJSONLSink(&got)
	var lines []string
	for i := 0; i < 3*recBatchLen; i++ {
		rec := cacheRecord(i, float64(i))
		ev.EmitDecision(rec)
		lines = append(lines, string(decision.AppendJSON(nil, rec)))
		if i%50 == 0 {
			e := cacheEvent(i, float64(i), 1)
			ev.Emit(e)
			lines = append(lines, string(AppendEventJSON(nil, e)))
		}
	}
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&want, "{\"schema\":%q}\n", EventSchema)
	for _, l := range lines {
		want.WriteString(l + "\n")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("event log\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
}

// feedSink collects what a JSONLSink feeds it.
type feedSink struct {
	events []Event
	recs   []decision.Record
}

func (f *feedSink) Emit(e Event)                     { f.events = append(f.events, e) }
func (f *feedSink) EmitDecision(rec decision.Record) { f.recs = append(f.recs, rec) }

// TestJSONLSinkFeedsInEmissionOrder: a fed sink receives every event and
// record the log writes, in emission order, by the time Close returns,
// whether the batches render on the caller or beside it; a fed sink that
// reads no records gets the events alone.
func TestJSONLSinkFeedsInEmissionOrder(t *testing.T) {
	stream := newLaneStream(2000)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var both feedSink
		events := &memSink{}
		ev := NewJSONLSink(io.Discard)
		ev.Feed(&both)
		ev.Feed(events)
		ser := NewSeriesSink(io.Discard)
		stream.emit(ev, ser)
		ser.Close()
		err := ev.Close()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(both.events, stream.events) || !reflect.DeepEqual(both.recs, stream.recs) {
			t.Errorf("GOMAXPROCS=%d: fed %d events and %d records, want the stream's %d and %d in order",
				procs, len(both.events), len(both.recs), len(stream.events), len(stream.recs))
		}
		if !reflect.DeepEqual(events.events, stream.events) {
			t.Errorf("GOMAXPROCS=%d: an event-only feed got %d events, want %d", procs, len(events.events), len(stream.events))
		}
	}
}
