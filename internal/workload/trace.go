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
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/cc"
	"repro/internal/cluster"
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
	jw := jsonl.NewWriter(w, TraceSchema)
	buf := make([]byte, 0, 256)
	jw.Line(fmt.Appendf(buf[:0], `{"h":"machine","ranks":%d,"rpn":%d,"policy":%s,"memo":%t,"memocap":%d,"maxconc":%d}`,
		tr.Machine.Ranks, tr.Machine.RanksPerNode, jsonl.AppendString(nil, tr.Machine.Policy),
		tr.Machine.Memo, tr.Machine.MemoCap, tr.Machine.MaxConcurrent))
	for _, d := range tr.Datasets {
		jw.Line(fmt.Appendf(buf[:0], `{"h":"dataset","name":%s,"dims":%s,"stripes":%d,"stripesize":%d}`,
			jsonl.AppendString(nil, d.Name), appendInts(nil, d.Dims), d.StripeCount, d.StripeSize))
	}
	jw.Line(fmt.Appendf(buf[:0], `{"h":"meta","seed":%d,"jobs":%d}`, tr.Seed, len(tr.Jobs)))
	for i := range tr.Jobs {
		buf = appendJob(buf[:0], i, &tr.Jobs[i])
		jw.Line(buf)
	}
	return jw.Close()
}

// traceLine is the union of all line shapes, for decoding: a key two shapes
// share ("ranks", "name") fills both.
type traceLine struct {
	h, e    string
	i, jobs int
	seed    uint64
	machine Machine
	ds      DatasetSpec
	job     Submission
}

// decode reads the line d stands at the start of into l. Keys may come in
// any order; unknown keys are skipped.
func (l *traceLine) decode(d *jsonl.Dec) error {
	*l = traceLine{}
	for d.Object(); d.NextKey(); {
		switch string(d.Key()) {
		case "h":
			l.h = d.String()
		case "e":
			l.e = d.String()
		case "ranks":
			l.machine.Ranks = d.Int()
			l.job.Ranks = l.machine.Ranks
		case "rpn":
			l.machine.RanksPerNode = d.Int()
		case "policy":
			l.machine.Policy = d.String()
		case "memo":
			l.machine.Memo = d.Bool()
		case "memocap":
			l.machine.MemoCap = d.Int()
		case "maxconc":
			l.machine.MaxConcurrent = d.Int()
		case "name":
			l.ds.Name = d.String()
			l.job.Name = l.ds.Name
		case "dims":
			l.ds.Dims = decodeInts(d)
		case "stripes":
			l.ds.StripeCount = d.Int()
		case "stripesize":
			l.ds.StripeSize = int64(d.Int())
		case "seed":
			l.seed = d.Uint64()
		case "jobs":
			l.jobs = d.Int()
		case "i":
			l.i = d.Int()
		case "t":
			l.job.T = d.Float()
		case "tenant":
			l.job.Tenant = d.String()
		case "class":
			l.job.Class = d.String()
		case "ds":
			l.job.Dataset = d.String()
		case "op":
			l.job.Op = d.String()
		case "start":
			l.job.Start = decodeInts(d)
		case "count":
			l.job.Count = decodeInts(d)
		case "split":
			l.job.SplitDim = d.Int()
		case "red":
			l.job.Reduce = d.Int()
		case "dl":
			l.job.Deadline = d.Float()
		case "pri":
			l.job.Priority = d.Int()
		case "est":
			l.job.EstCost = d.Float()
		case "spe":
			l.job.SecPerElem = d.Float()
		default:
			d.Skip()
		}
	}
	return d.End()
}

func decodeInts(d *jsonl.Dec) []int64 {
	out := make([]int64, 0, 3)
	for d.Array(); d.More(); {
		out = append(out, int64(d.Int()))
	}
	return out
}

// Read parses a repro.workload.v1 trace through jsonl.Scan. It validates
// the schema header, requires job indices to be dense and in order (a
// truncated or spliced file fails loudly), checks every header and job
// against the headers above it (see checkMachine and checkJob), and returns
// a Trace that Write would serialize back to the same bytes.
func Read(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sawMachine, wantJobs := false, -1
	var l traceLine
	err := jsonl.Scan(r, "workload: trace", TraceSchema, func(d *jsonl.Dec, _ string) error {
		if err := l.decode(d); err != nil {
			return err
		}
		switch {
		case l.h == "machine":
			if sawMachine {
				return fmt.Errorf("second machine header")
			}
			tr.Machine, sawMachine = l.machine, true
			return checkMachine(&tr.Machine)
		case l.h == "dataset":
			if tr.dataset(l.ds.Name) >= 0 {
				return fmt.Errorf("dataset %q declared twice", l.ds.Name)
			}
			tr.Datasets = append(tr.Datasets, l.ds)
		case l.h == "meta":
			tr.Seed, wantJobs = l.seed, l.jobs
		case l.e == "job":
			if l.i != len(tr.Jobs) {
				return fmt.Errorf("job index %d, want %d (corrupt or spliced trace)", l.i, len(tr.Jobs))
			}
			if err := tr.checkJob(&l.job); err != nil {
				return fmt.Errorf("job %q: %w", l.job.Name, err)
			}
			tr.Jobs = append(tr.Jobs, l.job)
		default:
			return fmt.Errorf(`unknown record (no "h" header type, not an "e":"job" line)`)
		}
		return nil
	})
	if err != nil {
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

// checkMachine rejects a machine header the cluster would refuse: no ranks,
// a negative node width, or a policy it does not know.
func checkMachine(m *Machine) error {
	if m.Ranks < 1 || m.RanksPerNode < 0 {
		return fmt.Errorf("machine of %d ranks, %d per node", m.Ranks, m.RanksPerNode)
	}
	return cluster.CheckPolicy(m.Policy)
}

// checkJob rejects a job that the machine and datasets declared above it
// cannot run, so that replay would panic or fail it: an undeclared dataset,
// a window of the wrong rank or outside the dims, a width outside the
// machine, a split dimension out of range or too short to give every rank a
// share, or an unknown reduce or operator code. It also rejects an arrival
// time, map cost or cost estimate that is negative or not finite, which
// replay would take without complaint and schedule by.
func (tr *Trace) checkJob(s *Submission) error {
	if t, spe, est := s.T, s.SecPerElem, s.EstCost; !(t >= 0 && spe >= 0 && est >= 0) || math.IsInf(t+spe+est, 1) {
		return fmt.Errorf("t %v, spe %v, est %v: each must be finite and at least 0", t, spe, est)
	}
	i := tr.dataset(s.Dataset)
	if i < 0 {
		return fmt.Errorf("dataset %q not declared", s.Dataset)
	}
	dims := tr.Datasets[i].Dims
	if len(s.Start) != len(dims) || len(s.Count) != len(dims) {
		return fmt.Errorf("start %v, count %v on dataset %q of dims %v", s.Start, s.Count, s.Dataset, dims)
	}
	for k, n := range dims {
		if s.Start[k] < 0 || s.Count[k] < 0 || s.Start[k] > n-s.Count[k] {
			return fmt.Errorf("window start %v, count %v outside dataset %q of dims %v", s.Start, s.Count, s.Dataset, dims)
		}
	}
	if s.Ranks < 1 || s.Ranks > tr.Machine.Ranks {
		return fmt.Errorf("%d ranks on a %d-rank machine", s.Ranks, tr.Machine.Ranks)
	}
	if s.SplitDim < 0 || s.SplitDim >= len(dims) || s.Count[s.SplitDim] < int64(s.Ranks) {
		return fmt.Errorf("split dim %d of count %v cannot give %d ranks a share each", s.SplitDim, s.Count, s.Ranks)
	}
	if s.Reduce != int(cc.AllToOne) && s.Reduce != int(cc.AllToAll) {
		return fmt.Errorf("reduce code %d names no reduce mode", s.Reduce)
	}
	_, err := OpByCode(s.Op)
	return err
}

// dataset returns the index of the dataset declared under name, or -1.
func (tr *Trace) dataset(name string) int {
	return slices.IndexFunc(tr.Datasets, func(d DatasetSpec) bool { return d.Name == name })
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
