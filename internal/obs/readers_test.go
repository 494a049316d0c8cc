package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsonl"
	"repro/internal/obs/decision"
)

// This file holds the log readers to their contract — never panic; an
// accepted line re-encodes to a canonical line that decodes to the same
// value; a line a writer here emits reads to what the reflection reader
// returned; anything else is an error naming its line — with the
// encoding/json readers the hand-written scanner replaced kept as oracles.

// wireEvent is the shape oracleReadEvents unmarshals event lines into.
type wireEvent struct {
	E     string     `json:"e"`
	ID    int        `json:"id"`
	T     float64    `json:"t"`
	Dur   float64    `json:"dur"`
	PID   int        `json:"pid"`
	TID   int        `json:"tid"`
	Name  string     `json:"name"`
	Cat   string     `json:"cat"`
	Value float64    `json:"value"`
	Attrs []wireAttr `json:"attrs"`
}

type wireAttr Attr

func (a *wireAttr) UnmarshalJSON(b []byte) error {
	var kv [2]string
	if err := json.Unmarshal(b, &kv); err != nil {
		return err
	}
	a.Key, a.Val = kv[0], kv[1]
	return nil
}

func oracleHeader(sc *bufio.Scanner, schema string) error {
	if !sc.Scan() {
		return fmt.Errorf("empty log")
	}
	var hdr struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return err
	}
	if hdr.Schema != schema {
		return fmt.Errorf("schema %q", hdr.Schema)
	}
	return nil
}

// oracleReadEvents is ReadEvents as it read through encoding/json: header,
// then every line unmarshalled twice (type probe, then the event).
func oracleReadEvents(r io.Reader) ([]Event, error) {
	sc := jsonl.NewScanner(r)
	if err := oracleHeader(sc, EventSchema); err != nil {
		return nil, err
	}
	var out []Event
	for sc.Scan() {
		if len(sc.Bytes()) == 0 || decision.IsLine(sc.Bytes()) {
			continue
		}
		var probe struct {
			E string `json:"e"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return nil, err
		}
		if !isEventType(probe.E) {
			continue
		}
		var w wireEvent
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			return nil, err
		}
		e := Event{E: w.E, ID: w.ID, T: w.T, Dur: w.Dur, PID: w.PID, TID: w.TID,
			Name: w.Name, Cat: w.Cat, Value: w.Value}
		for _, a := range w.Attrs {
			e.Attrs = append(e.Attrs, Attr(a))
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// oracleReadSeries is ReadSeries as it read through encoding/json.
func oracleReadSeries(r io.Reader) ([]SeriesPoint, error) {
	sc := jsonl.NewScanner(r)
	if err := oracleHeader(sc, SeriesSchema); err != nil {
		return nil, err
	}
	var out []SeriesPoint
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var raw struct {
			E       string    `json:"e"`
			Round   int       `json:"round"`
			T       float64   `json:"t"`
			Queue   int       `json:"queue"`
			Busy    int       `json:"busy"`
			Ranks   int       `json:"ranks"`
			OSTBusy []float64 `json:"ost_busy"`
			Classes []struct {
				Class string  `json:"class"`
				N     int     `json:"n"`
				P50   float64 `json:"p50"`
				P99   float64 `json:"p99"`
			} `json:"classes"`
		}
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return nil, err
		}
		if raw.E != "pt" {
			continue
		}
		p := SeriesPoint{Round: raw.Round, T: raw.T, QueueDepth: raw.Queue,
			RanksBusy: raw.Busy, RanksTotal: raw.Ranks, OSTBusy: raw.OSTBusy}
		for _, c := range raw.Classes {
			p.Classes = append(p.Classes, ClassWait{Class: c.Class, N: c.N, P50: c.P50, P99: c.P99})
		}
		out = append(out, p)
	}
	return out, sc.Err()
}

const (
	eventsHeader = `{"schema":"` + EventSchema + `"}` + "\n"
	seriesHeader = `{"schema":"` + SeriesSchema + `"}` + "\n"
)

// checkEventLine is the reader contract on one event-log line.
func checkEventLine(t *testing.T, line []byte) {
	if bytes.ContainsAny(line, "\n") {
		return // one line per call; multi-line inputs belong to FuzzReportLoad
	}
	log := append([]byte(eventsHeader), line...)
	evs, err := ReadEvents(bytes.NewReader(log))
	if err != nil {
		if !strings.Contains(err.Error(), "line 2") || evs != nil {
			t.Fatalf("rejected line: events %v, error %v (want one naming line 2)", evs, err)
		}
		return
	}
	// (The line scanner strips one trailing \r; what is left may be empty.)
	if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 && !json.Valid(line) {
		t.Fatalf("accepted a line encoding/json rejects: %q", line)
	}
	if len(evs) == 0 {
		return // not an event line: skipped
	}
	canon := AppendEventJSON(nil, evs[0])
	again, err := ReadEvents(bytes.NewReader(append([]byte(eventsHeader), canon...)))
	if err != nil || !reflect.DeepEqual(again, evs) {
		t.Fatalf("canonical form does not read back:\n line  %s\n canon %s\n first %+v\n again %+v (%v)", line, canon, evs, again, err)
	}
	if bytes.Equal(canon, line) {
		want, oerr := oracleReadEvents(bytes.NewReader(log))
		if oerr != nil || !reflect.DeepEqual(evs, want) {
			t.Fatalf("canonical line %s:\n scanner %+v\n oracle  %+v (%v)", line, evs, want, oerr)
		}
	}
}

// checkSeriesLine is the reader contract on one series line.
func checkSeriesLine(t *testing.T, line []byte) {
	if bytes.ContainsAny(line, "\n") {
		return
	}
	log := append([]byte(seriesHeader), line...)
	pts, err := ReadSeries(bytes.NewReader(log))
	if err != nil {
		if !strings.Contains(err.Error(), "line 2") || pts != nil {
			t.Fatalf("rejected line: points %v, error %v (want one naming line 2)", pts, err)
		}
		return
	}
	// (The line scanner strips one trailing \r; what is left may be empty.)
	if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 && !json.Valid(line) {
		t.Fatalf("accepted a line encoding/json rejects: %q", line)
	}
	if len(pts) == 0 {
		return
	}
	canon := AppendSeriesJSON(nil, pts[0])
	again, err := ReadSeries(bytes.NewReader(append([]byte(seriesHeader), canon...)))
	if err != nil || !reflect.DeepEqual(again, pts) {
		t.Fatalf("canonical form does not read back:\n line  %s\n canon %s\n first %+v\n again %+v (%v)", line, canon, pts, again, err)
	}
	if bytes.Equal(canon, line) {
		want, oerr := oracleReadSeries(bytes.NewReader(log))
		if oerr != nil || !reflect.DeepEqual(pts, want) {
			t.Fatalf("canonical line %s:\n scanner %+v\n oracle  %+v (%v)", line, pts, want, oerr)
		}
	}
}

// goldenEventLines returns the lines (header excluded) of the committed
// event-log goldens: this package's, and the jobs experiment's 500-odd.
func goldenEventLines(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, path := range []string{
		filepath.Join("testdata", "events.golden.jsonl"),
		filepath.Join("..", "experiments", "testdata", "jobs_fifo_events.golden.jsonl"),
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		out = append(out, lines[1:]...)
	}
	return out
}

// sampleSeriesLines are series lines as the sink writes them.
func sampleSeriesLines() [][]byte {
	var out [][]byte
	for _, p := range []SeriesPoint{
		{Round: 1, T: 0, QueueDepth: 2, RanksBusy: 4, RanksTotal: 8},
		{Round: 12, T: 3.5, QueueDepth: 40, RanksBusy: 30, RanksTotal: 32, OSTBusy: []float64{0.5, 0, 1e-9, 12.25},
			Classes: []ClassWait{{Class: "batch", N: 9, P50: 1.5, P99: 7}, {Class: "inter<active>", N: 40, P50: 0.1, P99: 2}}},
	} {
		out = append(out, AppendSeriesJSON(nil, p))
	}
	return out
}

// TestGoldenLinesMatchOracle runs the contract over every committed event
// line and requires each to be canonical, so the oracle comparison is not
// vacuous; then whole logs through both readers.
func TestGoldenLinesMatchOracle(t *testing.T) {
	for _, line := range goldenEventLines(t) {
		checkEventLine(t, line)
		evs, err := ReadEvents(bytes.NewReader(append([]byte(eventsHeader), line...)))
		if err != nil || len(evs) != 1 || !bytes.Equal(AppendEventJSON(nil, evs[0]), line) {
			t.Fatalf("golden line %s is not canonical (%v, %v)", line, evs, err)
		}
	}
	for _, line := range sampleSeriesLines() {
		checkSeriesLine(t, line)
	}
	log, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "jobs_fifo_events.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleReadEvents(bytes.NewReader(log))
	if err != nil || len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadEvents and the reflection reader disagree on the jobs golden (%d vs %d events, %v)", len(got), len(want), err)
	}
}

// TestReadersTakeAnyKeyOrderAndSkipUnknown: what the reflection readers
// tolerated, the scanner tolerates.
func TestReadersTakeAnyKeyOrderAndSkipUnknown(t *testing.T) {
	log := eventsHeader +
		`{"attrs":[["job","a"],["n","1","extra"]],"future":{"x":[1,2]},"cat":"sched","name":"queued","tid":3,"pid":0,"dur":0.5,"t":1,"e":"span"}` + "\n" +
		`{"t":9,"e":"tomorrow","payload":[[{}]]}` + "\n" +
		`{"v":"repro.decisions.v2","e":"decision","outcome":"round","round":1,"t":0,"policy":"fifo","free":0,"free_ranks":"","pending":1}` + "\n"
	got, err := ReadEvents(strings.NewReader(log))
	want := []Event{{E: "span", T: 1, Dur: 0.5, PID: 0, TID: 3, Name: "queued", Cat: "sched",
		Attrs: []Attr{{"job", "a"}, {"n", "1"}}}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadEvents = %+v, %v; want %+v", got, err, want)
	}
	// A short pair reads as empty strings and does not eat its neighbour.
	short, err := ReadEvents(strings.NewReader(eventsHeader + `{"e":"alert","t":1,"attrs":[[],["k"],["a","b"]]}` + "\n"))
	if err != nil || len(short) != 1 || !reflect.DeepEqual(short[0].Attrs, []Attr{{}, {Key: "k"}, {"a", "b"}}) {
		t.Fatalf("short attribute pairs read as %+v, %v", short, err)
	}
	var nev, ndec int
	err = ScanLog(strings.NewReader(log), func(*Event) { nev++ }, func(r *decision.Record) {
		ndec++
		if r.Outcome != decision.Round || r.Pending != 1 {
			t.Errorf("decision record %+v", r)
		}
	})
	if err != nil || nev != 1 || ndec != 1 {
		t.Fatalf("ScanLog: %d events, %d decisions, %v", nev, ndec, err)
	}
	for _, bad := range []string{`{"e":"span","t":}`, `{"e":"tomorrow","x":[}`, `{"e":"decision","v":"repro.decisions.v9"}`, `garbage`} {
		err := ScanLog(strings.NewReader(log+bad+"\n"), func(*Event) {}, func(*decision.Record) {})
		if err == nil || !strings.Contains(err.Error(), "line 5") {
			t.Errorf("ScanLog on %s: error %v, want one naming line 5", bad, err)
		}
	}
	pts, err := ReadSeries(strings.NewReader(seriesHeader +
		`{"classes":[{"p99":2,"p50":1,"n":3,"class":"a","later":null}],"ost_busy":[1,2.5],"ranks":8,"busy":4,"queue":2,"t":1.5,"round":7,"e":"pt"}` + "\n"))
	wantPt := []SeriesPoint{{Round: 7, T: 1.5, QueueDepth: 2, RanksBusy: 4, RanksTotal: 8,
		OSTBusy: []float64{1, 2.5}, Classes: []ClassWait{{Class: "a", N: 3, P50: 1, P99: 2}}}}
	if err != nil || !reflect.DeepEqual(pts, wantPt) {
		t.Fatalf("ReadSeries = %+v, %v; want %+v", pts, err, wantPt)
	}
}

func FuzzEventLine(f *testing.F) {
	for i, line := range goldenEventLines(f) {
		if i%5 == 0 {
			f.Add(line)
		}
	}
	f.Add([]byte(`{"t":1,"e":"sample","name":"q\u003c","value":-1.5e-7,"future":[{"a":null}]}`))
	f.Fuzz(checkEventLine)
}

func FuzzSeriesLine(f *testing.F) {
	for _, line := range sampleSeriesLines() {
		f.Add(line)
	}
	f.Add([]byte(`{"e":"pt","round":1,"t":0,"queue":0,"busy":0,"ranks":4,"classes":[{"class":"a","n":1,"p50":0,"p99":0,"x":[]}]}`))
	f.Fuzz(checkSeriesLine)
}

// TestAppendersZeroAlloc: the line writers append straight into dst, so a
// sink reusing its buffer allocates nothing per line.
func TestAppendersZeroAlloc(t *testing.T) {
	ev := Event{E: "span", ID: 7, T: 1.25, Dur: 0.5, PID: 3, TID: 2, Name: "read", Cat: "pfs",
		Attrs: []Attr{S("ost", "12"), S("note", "a<b\n")}}
	pt := SeriesPoint{Round: 12, T: 3.5, QueueDepth: 40, RanksBusy: 30, RanksTotal: 32,
		OSTBusy: make([]float64, 64),
		Classes: []ClassWait{{Class: "batch", N: 9, P50: 1.5, P99: 7}, {Class: "interactive", N: 40, P50: 0.1, P99: 2}}}
	buf := make([]byte, 0, 4096)
	if got := testing.AllocsPerRun(200, func() { buf = AppendEventJSON(buf[:0], ev) }); got != 0 {
		t.Errorf("AppendEventJSON allocates %v times per op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { buf = AppendSeriesJSON(buf[:0], pt) }); got != 0 {
		t.Errorf("AppendSeriesJSON allocates %v times per op, want 0", got)
	}
}
