// Versioned workload traces: repro.workload.v1 is a JSONL serialization of
// a Trace — header lines describing the machine, datasets, and provenance,
// then one "job" line per submission in stream order. The writer is
// byte-deterministic (fixed field order, shortest round-trip floats), so
// recording the same generated stream twice produces identical files and a
// trace can be diffed, versioned, and cmp'd in CI like any other artifact.
// Readers reject unknown schemas, so the format can evolve behind version
// bumps without silently misreading old files.
package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/jsonl"
)

// TraceSchema is the versioned identifier on the first line of every
// workload trace file.
const TraceSchema = "repro.workload.v1"

func appendInts(dst []byte, vs []int64) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}

// appendJob renders one submission as a canonical JSONL line (no trailing
// newline). Field order is fixed; every field is always present so two
// traces differ only where their submissions differ.
func appendJob(dst []byte, i int, s *Submission) []byte {
	dst = append(dst, `{"e":"job","i":`...)
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = append(dst, `,"t":`...)
	dst = jsonl.AppendFloat(dst, s.T)
	dst = append(dst, `,"tenant":`...)
	dst = jsonl.AppendString(dst, s.Tenant)
	dst = append(dst, `,"class":`...)
	dst = jsonl.AppendString(dst, s.Class)
	dst = append(dst, `,"name":`...)
	dst = jsonl.AppendString(dst, s.Name)
	dst = append(dst, `,"ds":`...)
	dst = jsonl.AppendString(dst, s.Dataset)
	dst = append(dst, `,"op":`...)
	dst = jsonl.AppendString(dst, s.Op)
	dst = append(dst, `,"start":`...)
	dst = appendInts(dst, s.Start)
	dst = append(dst, `,"count":`...)
	dst = appendInts(dst, s.Count)
	dst = append(dst, `,"split":`...)
	dst = strconv.AppendInt(dst, int64(s.SplitDim), 10)
	dst = append(dst, `,"ranks":`...)
	dst = strconv.AppendInt(dst, int64(s.Ranks), 10)
	dst = append(dst, `,"red":`...)
	dst = strconv.AppendInt(dst, int64(s.Reduce), 10)
	dst = append(dst, `,"dl":`...)
	dst = jsonl.AppendFloat(dst, s.Deadline)
	dst = append(dst, `,"pri":`...)
	dst = strconv.AppendInt(dst, int64(s.Priority), 10)
	dst = append(dst, `,"est":`...)
	dst = jsonl.AppendFloat(dst, s.EstCost)
	dst = append(dst, `,"spe":`...)
	dst = jsonl.AppendFloat(dst, s.SecPerElem)
	return append(dst, '}')
}

// Write serializes tr as repro.workload.v1. The output is a pure function
// of tr's value.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)
	fmt.Fprintf(bw, "{\"schema\":%q}\n", TraceSchema)
	fmt.Fprintf(bw, `{"h":"machine","ranks":%d,"rpn":%d,"policy":%s,"memo":%t,"memocap":%d,"maxconc":%d}`+"\n",
		tr.Machine.Ranks, tr.Machine.RanksPerNode, jsonl.AppendString(buf[:0], tr.Machine.Policy),
		tr.Machine.Memo, tr.Machine.MemoCap, tr.Machine.MaxConcurrent)
	for _, d := range tr.Datasets {
		fmt.Fprintf(bw, `{"h":"dataset","name":%s,"dims":%s,"stripes":%d,"stripesize":%d}`+"\n",
			jsonl.AppendString(buf[:0], d.Name), appendInts(nil, d.Dims), d.StripeCount, d.StripeSize)
	}
	fmt.Fprintf(bw, `{"h":"meta","seed":%d,"jobs":%d}`+"\n", tr.Seed, len(tr.Jobs))
	for i := range tr.Jobs {
		buf = appendJob(buf[:0], i, &tr.Jobs[i])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// traceLine is the union of all line shapes, for decoding.
type traceLine struct {
	Schema string `json:"schema"`
	H      string `json:"h"`
	E      string `json:"e"`

	// machine
	Ranks   int    `json:"ranks"`
	RPN     int    `json:"rpn"`
	Policy  string `json:"policy"`
	Memo    bool   `json:"memo"`
	MemoCap int    `json:"memocap"`
	MaxConc int    `json:"maxconc"`

	// dataset
	Name       string  `json:"name"`
	Dims       []int64 `json:"dims"`
	Stripes    int     `json:"stripes"`
	StripeSize int64   `json:"stripesize"`

	// meta
	Seed uint64 `json:"seed"`
	Jobs int    `json:"jobs"`

	// job
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

// Read parses a repro.workload.v1 trace. It validates the schema header,
// requires job indices to be dense and in order (a truncated or spliced
// file fails loudly), and returns a Trace that Write would serialize back
// to the same bytes.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("workload: empty trace")
	}
	var hdr traceLine
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("workload: bad trace header: %w", err)
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("workload: trace schema %q, want %q", hdr.Schema, TraceSchema)
	}
	tr := &Trace{}
	sawMachine, wantJobs := false, -1
	lineNo := 1
	for sc.Scan() {
		lineNo++
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", lineNo, err)
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
				return nil, fmt.Errorf("workload: trace line %d: job index %d, want %d (corrupt or spliced trace)",
					lineNo, l.I, len(tr.Jobs))
			}
			if _, err := OpByCode(l.Op); err != nil {
				return nil, fmt.Errorf("workload: trace line %d: %w", lineNo, err)
			}
			tr.Jobs = append(tr.Jobs, Submission{
				T: l.T, Tenant: l.Tenant, Class: l.Class, Name: l.Name,
				Dataset: l.DS, Op: l.Op, Start: l.Start, Count: l.Count,
				SplitDim: l.Split, Ranks: l.Ranks, Reduce: l.Red,
				Deadline: l.DL, Priority: l.Pri, EstCost: l.Est, SecPerElem: l.SPE,
			})
		default:
			return nil, fmt.Errorf("workload: trace line %d: unknown record %s", lineNo, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawMachine {
		return nil, fmt.Errorf("workload: trace has no machine header")
	}
	if wantJobs >= 0 && wantJobs != len(tr.Jobs) {
		return nil, fmt.Errorf("workload: trace has %d jobs, meta promised %d (truncated?)", len(tr.Jobs), wantJobs)
	}
	return tr, nil
}

// Diff compares two traces and returns human-readable differences, capped
// at limit lines (0 = no cap). Equal traces return nil. The comparison is
// exact — serialization-level, not tolerance-based — because replayability
// demands bit-equal streams.
func Diff(a, b *Trace, limit int) []string {
	var out []string
	add := func(format string, args ...any) bool {
		out = append(out, fmt.Sprintf(format, args...))
		return limit > 0 && len(out) >= limit
	}
	if a.Machine != b.Machine {
		if add("machine: %+v vs %+v", a.Machine, b.Machine) {
			return out
		}
	}
	if len(a.Datasets) != len(b.Datasets) {
		if add("datasets: %d vs %d", len(a.Datasets), len(b.Datasets)) {
			return out
		}
	} else {
		for i := range a.Datasets {
			da, db := &a.Datasets[i], &b.Datasets[i]
			if da.Name != db.Name || da.StripeCount != db.StripeCount ||
				da.StripeSize != db.StripeSize || !int64sEqual(da.Dims, db.Dims) {
				if add("dataset %d: %+v vs %+v", i, *da, *db) {
					return out
				}
			}
		}
	}
	n := len(a.Jobs)
	if len(b.Jobs) != n {
		if add("jobs: %d vs %d", len(a.Jobs), len(b.Jobs)) {
			return out
		}
		if len(b.Jobs) < n {
			n = len(b.Jobs)
		}
	}
	for i := 0; i < n; i++ {
		la := appendJob(nil, i, &a.Jobs[i])
		lb := appendJob(nil, i, &b.Jobs[i])
		if !bytes.Equal(la, lb) {
			if add("job %d:\n  a: %s\n  b: %s", i, la, lb) {
				return out
			}
		}
	}
	return out
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
