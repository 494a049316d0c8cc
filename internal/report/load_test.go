package report

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/decision"
)

// loadRetained is Load's oracle: the same folds fed from the retaining
// readers (obs.ReadEvents, decision.ReadLog), each making its own pass and
// keeping every record — what Load did before it streamed.
func loadRetained(log []byte) (*Data, error) {
	evs, err := obs.ReadEvents(bytes.NewReader(log))
	if err != nil {
		return nil, err
	}
	recs, err := decision.ReadLog(bytes.NewReader(log))
	if err != nil {
		return nil, err
	}
	d := New()
	for i := range evs {
		d.add(&evs[i])
	}
	for i := range recs {
		d.dec.Add(&recs[i])
	}
	return d, nil
}

var namesALine = regexp.MustCompile(`line \d+`)

// checkLoad is Load's contract on one event-log file: never panic; an error
// names the line (or the header, or the line reader's own limit); a log that
// loads builds and renders, twice to the same bytes, and holds exactly what
// the retaining readers fold to.
func checkLoad(t *testing.T, log []byte) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Load(path, "")
	want, werr := loadRetained(log)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Load error %v, the retaining readers' %v", err, werr)
	}
	if err != nil {
		if msg := err.Error(); !namesALine.MatchString(msg) && !strings.Contains(msg, "header") &&
			!strings.Contains(msg, "schema") && !strings.Contains(msg, "token too long") {
			t.Fatalf("error names no line: %v", err)
		}
		return
	}
	want.EventsPath = path
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("streamed Data differs from the retaining readers':\n got %+v\nwant %+v", d, want)
	}
	var a, b bytes.Buffer
	if err := Build(d, 0).WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := Build(d, 0).WriteText(&b); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("building twice from one Data renders differently (%v)", err)
	}
}

// seedLogs are whole event logs: the jobs experiment's golden event log with
// the decision golden of the quick run appended, and with the paper-scale
// run's (a longer stream, with more held skips) appended.
func seedLogs(t testing.TB) [][]byte {
	t.Helper()
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	events := read("jobs_fifo_events.golden.jsonl")
	return [][]byte{
		append(bytes.Clone(events), read("jobs_fifo_decisions.golden.jsonl")...),
		append(bytes.Clone(events), read("jobs_fifo_decisions_scale1.golden.jsonl")...),
	}
}

func TestLoadMatchesRetainingReaders(t *testing.T) {
	ev, _ := writeSyntheticLogs(t)
	synthetic, err := os.ReadFile(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range append(seedLogs(t), synthetic) {
		checkLoad(t, log)
		path := filepath.Join(t.TempDir(), "e.jsonl")
		os.WriteFile(path, log, 0o644)
		if d, err := Load(path, ""); err != nil || d.nEvents == 0 || len(d.dec.Jobs()) == 0 {
			t.Fatalf("seed log did not load with events and attributions: %v", err)
		}
	}
	// Errors carry the line: a bad event, a bad decision, a bad unknown line.
	for _, bad := range []string{`{"e":"span","t":"late"}`, `{"e":"decision","v":"repro.decisions.v2","round":1.5}`, `{"e":"later","x":[1,}`} {
		path := filepath.Join(t.TempDir(), "bad.jsonl")
		os.WriteFile(path, append(bytes.Clone(synthetic), bad+"\n"...), 0o644)
		n := bytes.Count(synthetic, []byte("\n")) + 1
		if _, err := Load(path, ""); err == nil || !strings.Contains(err.Error(), "line "+strconv.Itoa(n)) {
			t.Errorf("Load with %s appended: error %v, want one naming line %d", bad, err, n)
		}
	}
}

func FuzzReportLoad(f *testing.F) {
	// Short logs: the engine minimizes every input that finds new coverage,
	// which on the full ~100 KB goldens is where all its time would go.
	for _, log := range seedLogs(f) {
		var short []byte
		nev, ndec := 0, 0
		for i, l := range bytes.SplitAfter(log, []byte("\n")) {
			if dec := decision.IsLine(l); i == 0 || (dec && ndec < 8) || (!dec && nev < 12) {
				short = append(short, l...)
				if dec {
					ndec++
				} else {
					nev++
				}
			}
		}
		f.Add(short)
	}
	f.Add([]byte(`{"schema":"repro.events.v1"}` + "\n" + `{"e":"begin","id":1,"t":0,"pid":0,"tid":0,"name":"run","cat":"sched"}` + "\n" +
		`{"e":"attr","id":1,"attrs":[["deadline_miss","1"]]}` + "\n\n" + `{"e":"end","id":1,"t":2}` + "\n"))
	f.Fuzz(checkLoad)
}
