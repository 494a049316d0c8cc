package obs

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

// ReadSeries parses a JSONL series file produced by SeriesSink and returns
// the points in file order, each with slices of its own (see ScanSeries for
// what is skipped and what is an error).
func ReadSeries(r io.Reader) ([]SeriesPoint, error) {
	var out []SeriesPoint
	err := ScanSeries(r, func(p *SeriesPoint) {
		c := *p
		c.OSTBusy, c.Classes = nil, nil
		if len(p.OSTBusy) > 0 {
			c.OSTBusy = slices.Clone(p.OSTBusy)
		}
		if len(p.Classes) > 0 {
			c.Classes = slices.Clone(p.Classes)
		}
		out = append(out, c)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func sampleSeries() []SeriesPoint {
	return []SeriesPoint{
		{Round: 1, T: 0, QueueDepth: 3, RanksBusy: 0, RanksTotal: 16},
		{Round: 2, T: 1.25, QueueDepth: 2, RanksBusy: 8, RanksTotal: 16,
			OSTBusy: []float64{0.5, 0.25, 0},
			Classes: []ClassWait{
				{Class: "batch", N: 4, P50: 0.5, P99: 2.5},
				{Class: "interactive", N: 2, P50: 0.1, P99: 0.2},
			}},
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewSeriesSink(&buf)
	for _, p := range sampleSeries() {
		s.Sample(p)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Points() != 2 {
		t.Fatalf("Points = %d, want 2", s.Points())
	}
	if !strings.HasPrefix(buf.String(), `{"schema":"repro.series.v1"}`+"\n") {
		t.Fatalf("missing schema header:\n%s", buf.String())
	}
	got, err := ReadSeries(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := sampleSeries()
	if len(got) != len(want) {
		t.Fatalf("read %d points, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.Round != b.Round || a.T != b.T || a.QueueDepth != b.QueueDepth ||
			a.RanksBusy != b.RanksBusy || a.RanksTotal != b.RanksTotal ||
			len(a.OSTBusy) != len(b.OSTBusy) || len(a.Classes) != len(b.Classes) {
			t.Fatalf("point %d mismatch: %+v != %+v", i, a, b)
		}
		for j := range b.Classes {
			if a.Classes[j] != b.Classes[j] {
				t.Fatalf("point %d class %d: %+v != %+v", i, j, a.Classes[j], b.Classes[j])
			}
		}
	}
}

func TestSeriesBytesDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		s := NewSeriesSink(&buf)
		for _, p := range sampleSeries() {
			s.Sample(p)
		}
		s.Close()
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("series serialization not byte-deterministic")
	}
}

func TestSeriesReaderSkipsUnknownLineTypes(t *testing.T) {
	var buf bytes.Buffer
	s := NewSeriesSink(&buf)
	s.Sample(SeriesPoint{Round: 1, T: 0, QueueDepth: 1})
	s.Close()
	log := strings.Replace(buf.String(), "\n{", "\n{\"e\":\"future-type\",\"x\":1}\n{", 1)
	got, err := ReadSeries(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Round != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestSeriesReaderRejectsWrongSchema(t *testing.T) {
	if _, err := ReadSeries(strings.NewReader(`{"schema":"repro.events.v1"}` + "\n")); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadSeries(strings.NewReader("")); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestNilSeriesSinkNoOps(t *testing.T) {
	var s *SeriesSink
	s.Sample(SeriesPoint{})
	if s.Points() != 0 {
		t.Fatal("nil sink counted a point")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	tr.SetSeries(nil)
	tr.Sample(SeriesPoint{})
	if tr.Series() != nil {
		t.Fatal("nil tracer returned a series sink")
	}
}

// pointRecorder is an EventSink that also reads series points.
type pointRecorder struct{ pts []SeriesPoint }

func (r *pointRecorder) Emit(Event)           {}
func (r *pointRecorder) Sample(p SeriesPoint) { r.pts = append(r.pts, p) }

// TestTracerSampleFollowsTheSeriesSink: the tracer hands a point to the
// series sink and then to every PointSink attached, and records none while
// no series sink is installed, so a sink reads points exactly when the
// series log records them.
func TestTracerSampleFollowsTheSeriesSink(t *testing.T) {
	tr := New()
	rec := &pointRecorder{}
	tr.AddSink(rec)
	pts := sampleSeries()
	tr.Sample(pts[0])
	if len(rec.pts) != 0 {
		t.Fatalf("a point reached a PointSink with no series sink installed: %+v", rec.pts)
	}
	var buf bytes.Buffer
	ser := NewSeriesSink(&buf)
	tr.SetSeries(ser)
	for _, p := range pts {
		tr.Sample(p)
	}
	if err := ser.Close(); err != nil {
		t.Fatal(err)
	}
	logged, err := ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ser.Points() != len(pts) || len(rec.pts) != len(pts) || len(logged) != len(pts) {
		t.Fatalf("series sink %d points, log %d, PointSink %d; want %d each",
			ser.Points(), len(logged), len(rec.pts), len(pts))
	}
	for i := range pts {
		if rec.pts[i].Round != logged[i].Round || rec.pts[i].T != logged[i].T {
			t.Fatalf("point %d: PointSink has %+v, the log %+v", i, rec.pts[i], logged[i])
		}
	}
}

// TestReadEventsSkipsVersionedUnknownLines pins the forward-compat contract:
// an events reader must tolerate any line type it does not understand (not
// just decision records), so pre-series analyzers can read series-era logs.
func TestReadEventsSkipsVersionedUnknownLines(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit(Event{E: "span", T: 1, Dur: 2, PID: 0, TID: 0, Name: "run", Cat: "sched"})
	sink.Close()
	log := buf.String() +
		`{"e":"pt","round":1,"t":0,"queue":3,"busy":0,"ranks":16}` + "\n" +
		`{"e":"shiny-new-record","payload":{"nested":[1,2,3]}}` + "\n"
	got, err := ReadEvents(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "run" {
		t.Fatalf("got %+v", got)
	}
	// Malformed JSON must still be loud.
	if _, err := ReadEvents(strings.NewReader(buf.String() + "{not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}
