package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// This file holds Read to the contract the other JSONL readers keep — never
// panic; an accepted line is valid JSON, and what was read writes and reads
// back to itself; a line Write emits reads to what the reflection reader
// Read replaced returns; anything else is an error naming its line — with
// that encoding/json reader kept as the oracle.

// oracleLine is the union of all line shapes, as the reflection reader
// decoded them.
type oracleLine struct {
	Schema string `json:"schema"`
	H      string `json:"h"`
	E      string `json:"e"`

	Ranks   int    `json:"ranks"`
	RPN     int    `json:"rpn"`
	Policy  string `json:"policy"`
	Memo    bool   `json:"memo"`
	MemoCap int    `json:"memocap"`
	MaxConc int    `json:"maxconc"`

	Name       string  `json:"name"`
	Dims       []int64 `json:"dims"`
	Stripes    int     `json:"stripes"`
	StripeSize int64   `json:"stripesize"`

	Seed uint64 `json:"seed"`
	Jobs int    `json:"jobs"`

	I      int     `json:"i"`
	T      float64 `json:"t"`
	Tenant string  `json:"tenant"`
	Class  string  `json:"class"`
	DS     string  `json:"ds"`
	Op     string  `json:"op"`
	Start  []int64 `json:"start"`
	Count  []int64 `json:"count"`
	Split  int     `json:"split"`
	Red    int     `json:"red"`
	DL     float64 `json:"dl"`
	Pri    int     `json:"pri"`
	Est    float64 `json:"est"`
	SPE    float64 `json:"spe"`
}

// oracleRead is Read as it read through encoding/json: the schema header,
// dense job indices, known operators and the meta job count, but none of
// the checks of jobs against the headers.
func oracleRead(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("empty trace")
	}
	var hdr oracleLine
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, err
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("trace schema %q", hdr.Schema)
	}
	tr := &Trace{}
	sawMachine, wantJobs := false, -1
	for sc.Scan() {
		var l oracleLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, err
		}
		switch {
		case l.H == "machine":
			tr.Machine = Machine{Ranks: l.Ranks, RanksPerNode: l.RPN, Policy: l.Policy,
				Memo: l.Memo, MemoCap: l.MemoCap, MaxConcurrent: l.MaxConc}
			sawMachine = true
		case l.H == "dataset":
			tr.Datasets = append(tr.Datasets, DatasetSpec{Name: l.Name, Dims: l.Dims,
				StripeCount: l.Stripes, StripeSize: l.StripeSize})
		case l.H == "meta":
			tr.Seed, wantJobs = l.Seed, l.Jobs
		case l.E == "job":
			if l.I != len(tr.Jobs) {
				return nil, fmt.Errorf("job index %d, want %d", l.I, len(tr.Jobs))
			}
			if _, err := OpByCode(l.Op); err != nil {
				return nil, err
			}
			tr.Jobs = append(tr.Jobs, Submission{
				T: l.T, Tenant: l.Tenant, Class: l.Class, Name: l.Name,
				Dataset: l.DS, Op: l.Op, Start: l.Start, Count: l.Count,
				SplitDim: l.Split, Ranks: l.Ranks, Reduce: l.Red,
				Deadline: l.DL, Priority: l.Pri, EstCost: l.Est, SecPerElem: l.SPE,
			})
		default:
			return nil, fmt.Errorf("unknown record %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawMachine {
		return nil, fmt.Errorf("no machine header")
	}
	if wantJobs >= 0 && wantJobs != len(tr.Jobs) {
		return nil, fmt.Errorf("%d jobs, meta promised %d", len(tr.Jobs), wantJobs)
	}
	return tr, nil
}

func writeTrace(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenTrace returns the committed trace golden (the ccexp package owns
// the file).
func goldenTrace(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "cmd", "ccexp", "testdata", "workload_trace.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fuzzPrefix is the golden's header lines before its meta line: the schema,
// the machine and the datasets. checkWorkloadLine reads one line after it,
// as the prefix's line count + 1.
func fuzzPrefix(t testing.TB) ([]byte, int) {
	t.Helper()
	golden := goldenTrace(t)
	end := bytes.Index(golden, []byte(`{"h":"meta"`))
	if end < 0 {
		t.Fatal("trace golden has no meta line")
	}
	return golden[:end], bytes.Count(golden[:end], []byte("\n")) + 1
}

// checkWorkloadLine is the reader contract on one line read as line n,
// after prefix (fuzzPrefix).
func checkWorkloadLine(t *testing.T, prefix []byte, n int, line []byte) {
	if bytes.ContainsAny(line, "\n") {
		return // one line per call
	}
	trace := append(bytes.Clone(prefix), line...)
	tr, err := Read(bytes.NewReader(trace))
	if err != nil {
		// A meta line's job count is checked at the end of the trace.
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("line %d: ", n)) && !strings.Contains(msg, "meta promised") {
			t.Fatalf("rejected line %q: error %v names neither line %d nor the meta count", line, err, n)
		}
		return
	}
	// (The line scanner strips one trailing \r; what is left may be empty.)
	if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 && !json.Valid(line) {
		t.Fatalf("accepted a line encoding/json rejects: %q", line)
	}
	out := writeTrace(t, tr)
	again, err := Read(bytes.NewReader(out))
	if err != nil || !bytes.Equal(writeTrace(t, again), out) {
		t.Fatalf("line %q: what was read does not write and read back (%v):\n%s", line, err, out)
	}
	if bytes.Contains(out, append(append([]byte("\n"), line...), '\n')) {
		want, oerr := oracleRead(bytes.NewReader(trace))
		if oerr != nil || !bytes.Equal(writeTrace(t, want), out) {
			t.Fatalf("line %s: Read and the encoding/json reader disagree (%v)", line, oerr)
		}
	}
}

// workloadSeedLines are the golden's lines, and its jobs rendered as the
// first job, the one index a line after the headers may carry.
func workloadSeedLines(t testing.TB) [][]byte {
	t.Helper()
	golden := goldenTrace(t)
	tr, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
	for i := range tr.Jobs {
		lines = append(lines, appendJob(nil, 0, &tr.Jobs[i]))
	}
	return lines
}

// TestGoldenTraceMatchesOracle: the golden reads the same through Read and
// the reflection reader, to the bytes it holds, and every line of it keeps
// the contract.
func TestGoldenTraceMatchesOracle(t *testing.T) {
	golden := goldenTrace(t)
	got, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleRead(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(writeTrace(t, got), golden) || !bytes.Equal(writeTrace(t, want), golden) {
		t.Fatal("the golden does not read back to its own bytes through both readers")
	}
	prefix, n := fuzzPrefix(t)
	accepted := 0
	for _, line := range workloadSeedLines(t) {
		checkWorkloadLine(t, prefix, n, line)
		if _, err := Read(bytes.NewReader(append(bytes.Clone(prefix), line...))); err == nil {
			accepted++
		}
	}
	if accepted < len(got.Jobs) {
		t.Fatalf("%d seed lines accepted, want at least the %d jobs", accepted, len(got.Jobs))
	}
}

// TestTraceReaderRules pins where Read parts from the reflection reader it
// replaced: keys are case-sensitive, null is no value, and blank lines are
// skipped; seeds run to 2⁶⁴−1.
func TestTraceReaderRules(t *testing.T) {
	prefix, _ := fuzzPrefix(t)
	read := func(line string) (*Trace, error) {
		return Read(strings.NewReader(string(prefix) + line + "\n"))
	}
	for _, line := range []string{
		`{"H":"meta","seed":1,"jobs":0}`,
		`{"h":"meta","seed":null,"jobs":0}`,
		`{"h":"meta","seed":-1,"jobs":0}`,
		`{"h":"meta","seed":18446744073709551616,"jobs":0}`,
	} {
		if _, err := read(line); err == nil {
			t.Errorf("Read accepted %s", line)
		}
	}
	tr, err := read("\n" + `{"h":"meta","seed":18446744073709551615,"jobs":0}` + "\n")
	if err != nil || tr.Seed != 1<<64-1 {
		t.Fatalf("blank lines and the largest seed: %+v, %v", tr, err)
	}
}

func FuzzWorkloadLine(f *testing.F) {
	for _, line := range workloadSeedLines(f) {
		f.Add(line)
	}
	f.Add([]byte(`{"h":"meta","seed":18446744073709551615,"jobs":0,"future":[{"a":null}]}`))
	f.Add([]byte(`{"spe":1e-4,"est":0.5,"pri":0,"dl":0,"red":1,"ranks":1,"split":1,"count":[1,2,3],"start":[0,0,0],"op":"hist:0:1:4","ds":"climate-c","name":"n<","class":"c","tenant":"t","t":0,"i":0,"e":"job"}`))
	prefix, n := fuzzPrefix(f)
	f.Fuzz(func(t *testing.T, line []byte) { checkWorkloadLine(t, prefix, n, line) })
}
