// Package decision is the scheduler's explainability record: typed,
// byte-deterministic Records stating what the scheduler did with each pending
// job — admitted it, served it from the memo layer, dropped it, or skipped it
// — and *why*, with the blocking job and a free-rank snapshot attached.
//
// The stream is bounded by what changes, not by what waits. A job's terminal
// record (admit, drop, memo-hit, memo-wait, coalesce) is written when it
// happens. A round that leaves jobs pending writes one Round record — the
// round's time, free-rank snapshot and pending count — and then a Skip record
// only for each job whose cause (reason, blocking job, shadow time) differs
// from the one last written for it. A skip holds until the job's next record:
// at every later Round record the job is still pending for the same cause,
// and its wait there is that round's T minus the skip's Submit. Attribute
// folds exactly that reading.
//
// Records serialize to canonical JSONL ("repro.decisions.v2" lines,
// interleavable with the repro.events.v1 event log), so two identical runs
// produce byte-identical decision logs, and a recorded log can be re-read and
// attributed offline. (The v1 format, which wrote a skip line per pending job
// per round, is no longer read: a v1 line is a wrong-schema error.)
//
// The package is deliberately below internal/obs in the import graph: obs
// mirrors records into its event sink, the cluster scheduler emits them, and
// the ccexp explain experiment replays them — none of which this package
// knows about.
package decision

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/jsonl"
)

// Schema is the versioned identifier carried in every decision line ("v"
// field). Bump the suffix when the serialized shape changes incompatibly.
const Schema = "repro.decisions.v2"

// Outcome is what the scheduler did with a pending job at one round.
type Outcome string

const (
	// Admit: the job started on its placement ranks this round.
	Admit Outcome = "admit"
	// Skip: the job stayed pending; Reason says why. The record holds until
	// the job's next one.
	Skip Outcome = "skip"
	// Drop: the job's deadline expired while queued and it was removed.
	Drop Outcome = "drop"
	// MemoHit: the job completed instantly from the result cache.
	MemoHit Outcome = "memo-hit"
	// MemoWait: the job attached to an identical in-flight donor (BlockedBy).
	MemoWait Outcome = "memo-wait"
	// Coalesce: the job's operator was fused onto an overlapping donor's
	// physical pass (BlockedBy).
	Coalesce Outcome = "coalesce"
	// Round is not about one job: it closes an admission round that left
	// Pending jobs queued, and carries the round's free-rank snapshot for
	// every skip in force.
	Round Outcome = "round"
)

// Reason is the typed cause attached to an outcome.
type Reason string

const (
	// InsufficientRanks: the job's width exceeds the free-rank count;
	// BlockedBy is the running job whose completion first makes it fit.
	InsufficientRanks Reason = "insufficient-ranks"
	// ShadowReservation: the job fits the free ranks but starting it could
	// delay the blocked head's EASY reservation; BlockedBy is the head,
	// Shadow the reserved start time.
	ShadowReservation Reason = "shadow-reservation"
	// ConcurrencyCap: Spec.MaxConcurrent leaves no slot; BlockedBy is the
	// running job estimated to finish first.
	ConcurrencyCap Reason = "concurrency-cap"
	// HeadOfLine: the job fits but the policy serves BlockedBy first and
	// that choice does not fit.
	HeadOfLine Reason = "head-of-line"
	// DeadlineDrop: the Drop outcome's reason — the deadline expired.
	DeadlineDrop Reason = "deadline-drop"
	// WaitingOnTwin: the MemoWait/Coalesce reason — service is deferred to
	// the in-flight donor named by BlockedBy.
	WaitingOnTwin Reason = "memo-wait"
	// Backfill: the Admit reason for jobs started ahead of a blocked head
	// holding a reservation at Shadow.
	Backfill Reason = "backfill"
)

// Record is one scheduler decision. T, Wait and Submit are virtual seconds;
// Seq is the job's global submission sequence (trace pid - 1). BlockedBySeq
// is -1 when no blocking job applies. FreeRanks and Ranks are compact
// rank-set strings (FormatRanks); Free is the free-rank count at decision
// time (before placement, for admissions). Shadow is the EASY reservation's
// start time and is only meaningful (and only serialized) for the
// ShadowReservation and Backfill reasons.
//
// Which fields a line carries follows from the Outcome. A Round record has
// Round, T, Policy, Free, FreeRanks and Pending and names no job. A Skip
// record names the job, its cause and its Submit time, from which Wait is
// T - Submit here and at any later round; the free-rank snapshot it was
// decided against is the preceding Round record's. Every other outcome
// carries Wait, Free and FreeRanks itself.
type Record struct {
	Round        int
	T            float64
	Policy       string
	Job          string
	Seq          int
	Outcome      Outcome
	Reason       Reason
	BlockedBy    string
	BlockedBySeq int
	Width        int
	Wait         float64
	Submit       float64
	Free         int
	FreeRanks    string
	Ranks        string
	Shadow       float64
	Pending      int
}

// Sink receives decision records as they are emitted. The obs JSONL event
// sink implements it, interleaving decision lines with the event stream.
type Sink interface {
	EmitDecision(Record)
}

// linePrefix opens every line AppendJSON writes.
const linePrefix = `{"e":"decision","v":"` + Schema + `","round":`

// AppendJSON appends r's canonical JSONL serialization (no trailing
// newline) to dst. The byte layout is a pure function of the Record value:
// the outcome picks the line's fields, their order is fixed, floats are in
// shortest round-trip form, optional fields are present exactly when
// meaningful — so identical decision streams serialize to identical bytes.
func AppendJSON(dst []byte, r Record) []byte { return AppendJSONCached(dst, &r, nil) }

// AppendJSONCached is AppendJSON rendering "t" through slot 0 of fc (nil
// caches nothing), the slot an event log's lines render their "t" through:
// a log interleaving both kinds of line keeps one time cache.
func AppendJSONCached(dst []byte, r *Record, fc *jsonl.FloatCache) []byte {
	dst = append(dst, linePrefix...)
	dst = jsonl.AppendInt(dst, r.Round)
	dst = append(dst, `,"t":`...)
	dst = fc.Append(dst, 0, r.T)
	dst = append(dst, `,"policy":`...)
	dst = jsonl.AppendString(dst, r.Policy)
	if r.Outcome == Round {
		dst = append(dst, `,"outcome":"round"`...)
		dst = appendFree(dst, r)
		dst = append(dst, `,"pending":`...)
		dst = jsonl.AppendInt(dst, r.Pending)
		return append(dst, '}')
	}
	dst = append(dst, `,"job":`...)
	dst = jsonl.AppendString(dst, r.Job)
	dst = append(dst, `,"seq":`...)
	dst = jsonl.AppendInt(dst, r.Seq)
	dst = append(dst, `,"outcome":`...)
	dst = jsonl.AppendString(dst, string(r.Outcome))
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = jsonl.AppendString(dst, string(r.Reason))
	}
	if r.BlockedBySeq >= 0 && r.BlockedBy != "" {
		dst = append(dst, `,"blocked_by":`...)
		dst = jsonl.AppendString(dst, r.BlockedBy)
		dst = append(dst, `,"blocked_seq":`...)
		dst = jsonl.AppendInt(dst, r.BlockedBySeq)
	}
	dst = append(dst, `,"width":`...)
	dst = jsonl.AppendInt(dst, r.Width)
	if r.Outcome == Skip {
		dst = append(dst, `,"submit":`...)
		dst = jsonl.AppendFloat(dst, r.Submit)
	} else {
		dst = append(dst, `,"wait":`...)
		dst = jsonl.AppendFloat(dst, r.Wait)
		dst = appendFree(dst, r)
	}
	if r.Ranks != "" {
		dst = append(dst, `,"ranks":`...)
		dst = jsonl.AppendString(dst, r.Ranks)
	}
	if hasShadow(r.Reason) {
		dst = append(dst, `,"shadow":`...)
		dst = jsonl.AppendFloat(dst, r.Shadow)
	}
	return append(dst, '}')
}

func appendFree(dst []byte, r *Record) []byte {
	dst = append(dst, `,"free":`...)
	dst = jsonl.AppendInt(dst, r.Free)
	dst = append(dst, `,"free_ranks":`...)
	return jsonl.AppendString(dst, r.FreeRanks)
}

// hasShadow reports whether records with this reason carry a shadow time.
func hasShadow(r Reason) bool { return r == ShadowReservation || r == Backfill }

// AppendLog appends every record as one canonical JSONL line (with trailing
// newlines) — the exact bytes a Sink-connected event log carries for the
// same stream.
func AppendLog(dst []byte, recs []Record) []byte {
	for _, r := range recs {
		dst = AppendJSON(dst, r)
		dst = append(dst, '\n')
	}
	return dst
}

// Decode reads the decision line d stands at the start of into r. Keys may
// come in any order and unknown keys are skipped; a line that is not a
// decision record, or names a schema other than Schema, is an error. What comes back is what AppendJSON would write again: fields the
// line's outcome does not carry are zero, whatever the line said, and
// BlockedBySeq is -1 without a blocking job.
func Decode(d *jsonl.Dec, r *Record) error {
	*r = Record{}
	var typ, schema string
	for d.Object(); d.NextKey(); {
		switch string(d.Key()) {
		case "e":
			typ = d.String()
		case "v":
			schema = d.String()
		case "round":
			r.Round = d.Int()
		case "t":
			r.T = d.Float()
		case "policy":
			r.Policy = d.String()
		case "job":
			r.Job = d.String()
		case "seq":
			r.Seq = d.Int()
		case "outcome":
			r.Outcome = Outcome(d.String())
		case "reason":
			r.Reason = Reason(d.String())
		case "blocked_by":
			r.BlockedBy = d.String()
		case "blocked_seq":
			r.BlockedBySeq = d.Int()
		case "width":
			r.Width = d.Int()
		case "wait":
			r.Wait = d.Float()
		case "submit":
			r.Submit = d.Float()
		case "free":
			r.Free = d.Int()
		case "free_ranks":
			r.FreeRanks = d.String()
		case "ranks":
			r.Ranks = d.String()
		case "shadow":
			r.Shadow = d.Float()
		case "pending":
			r.Pending = d.Int()
		default:
			d.Skip()
		}
	}
	if err := d.End(); err != nil {
		return err
	}
	if typ != "decision" {
		return fmt.Errorf("line type %q, want \"decision\"", typ)
	}
	if schema != Schema {
		return fmt.Errorf("schema %q, want %q", schema, Schema)
	}
	if r.BlockedBy == "" || r.BlockedBySeq < 0 {
		r.BlockedBy, r.BlockedBySeq = "", -1
	}
	if !hasShadow(r.Reason) {
		r.Shadow = 0
	}
	switch {
	case r.Outcome == Round:
		*r = Record{Round: r.Round, T: r.T, Policy: r.Policy, Outcome: Round,
			BlockedBySeq: -1, Free: r.Free, FreeRanks: r.FreeRanks, Pending: r.Pending}
	case r.Outcome == Skip:
		r.Wait, r.Free, r.FreeRanks, r.Pending = r.T-r.Submit, 0, "", 0
	default:
		r.Submit, r.Pending = 0, 0
	}
	return nil
}

// IsLine reports whether one JSONL line is a decision record in the
// canonical form (the "e" key first, as AppendJSON writes it).
func IsLine(line []byte) bool {
	return bytes.HasPrefix(line, []byte(`{"e":"decision"`))
}

// ReadLog extracts the decision records from r, in file order. The input
// may be a pure decision log or a mixed repro.events.v1 event log with
// decision lines interleaved (the -events output of an -explain run); lines
// of any other type, the event log's header included, are skipped. A
// malformed or wrong-schema decision line is an error naming its line, and so
// is a line that is not a JSON object.
func ReadLog(r io.Reader) ([]Record, error) {
	var out []Record
	err := jsonl.Scan(r, "decision: log", "", func(d *jsonl.Dec, typ string) error {
		if typ != "decision" {
			return nil
		}
		var rec Record
		err := Decode(d, &rec)
		out = append(out, rec)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Rank-set strings

// FormatRanks renders an ascending rank list as a compact range string:
// [0,1,2,3,12,14,15] -> "0-3,12,14-15". Empty input renders as "".
func FormatRanks(ranks []int) string {
	if len(ranks) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(ranks); {
		j := i
		for j+1 < len(ranks) && ranks[j+1] == ranks[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(ranks[i]))
		if j > i {
			b.WriteByte('-')
			b.WriteString(strconv.Itoa(ranks[j]))
		}
		i = j + 1
	}
	return b.String()
}

// ParseRanks parses a FormatRanks string back into the ascending rank list.
func ParseRanks(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		lo, hi, found := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("decision: bad rank set %q: %w", s, err)
		}
		b := a
		if found {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil, fmt.Errorf("decision: bad rank set %q: %w", s, err)
			}
		}
		if b < a {
			return nil, fmt.Errorf("decision: bad rank range %q in %q", part, s)
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Wait attribution

// Segment is one contiguous stretch of a job's queue wait attributed to a
// single (reason, blocking job) cause.
type Segment struct {
	Reason       Reason
	BlockedBy    string // "" when no blocking job applies
	BlockedBySeq int    // -1 when no blocking job applies
	Seconds      float64
}

// JobAttribution is one job's decision history folded into a wait
// explanation: the terminal outcome, the total queue wait, and the wait
// split into per-cause segments in first-occurrence order. The segment
// seconds always sum to Wait (each inter-round interval is attributed to
// the skip reason recorded at its start).
type JobAttribution struct {
	Seq      int
	Job      string
	Submit   float64 // recovered as terminal T - Wait
	Decided  float64 // terminal decision time (admission/drop/attach)
	Wait     float64
	Outcome  Outcome
	Reason   Reason // terminal record's reason ("" for plain admissions)
	Segments []Segment
}

// String renders the attribution as one human-readable sentence, e.g.
// "hist-4 admitted after 14.2000s queued: 12.1000s insufficient-ranks
// behind sum-0, 2.1000s head-of-line behind sum-3".
func (ja JobAttribution) String() string {
	var buf [192]byte // a sentence of a few segments builds on the stack
	return string(ja.Append(buf[:0]))
}

// Append appends the sentence String renders to b.
func (ja *JobAttribution) Append(b []byte) []byte {
	verb := verbs[ja.Outcome]
	if verb == "" {
		verb = string(ja.Outcome)
	}
	b = append(b, ja.Job...)
	b = append(b, ' ')
	b = append(b, verb...)
	b = append(b, " after "...)
	b = appendSeconds(b, ja.Wait)
	b = append(b, " queued"...)
	for i, seg := range ja.Segments {
		if i == 0 {
			b = append(b, ": "...)
		} else {
			b = append(b, ", "...)
		}
		b = appendSeconds(b, seg.Seconds)
		b = append(b, ' ')
		b = append(b, seg.Reason...)
		if seg.BlockedBy != "" {
			b = append(b, " behind "...)
			b = append(b, seg.BlockedBy...)
		}
	}
	return b
}

// verbs names the terminal outcomes in an attribution sentence; any other
// outcome names itself.
var verbs = map[Outcome]string{
	Admit: "admitted", Drop: "dropped", MemoHit: "served from cache",
	MemoWait: "attached to in-flight twin", Coalesce: "coalesced onto donor",
}

// appendSeconds appends v as fmt's "%.4fs" renders it.
func appendSeconds(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'f', 4, 64), 's')
}

// segKey identifies a segment cause for merging across rounds.
type segKey struct {
	reason Reason
	bySeq  int
}

// jobFold is one job's running attribution inside a Fold.
type jobFold struct {
	ja       JobAttribution
	lastT    float64 // start of the interval not yet charged
	lastKey  segKey  // the skip in force since lastT
	lastBy   string
	seg      int // lastKey's index in ja.Segments; -1 until it is first charged
	haveSkip bool
	done     bool
}

// Fold is Attribute as a running fold, for readers that do not keep the
// records: Add each record in log order, then take Jobs. The zero Fold is
// ready to use. Its state is one entry per job, not per record.
type Fold struct {
	jobs map[int]*jobFold
	seqs []int
	// held lists the jobs whose latest record is a skip, in the order of
	// their first skips — the order the scheduler walks its pending queue in.
	held []*jobFold
	n    int
}

// charge attributes the interval [st.lastT, until) to the skip in force.
func (st *jobFold) charge(until float64) {
	if !st.haveSkip {
		return
	}
	dt := until - st.lastT
	if dt <= 0 {
		return
	}
	if st.seg < 0 { // first charge since the cause changed: find its segment
		st.seg = st.segment()
	}
	st.ja.Segments[st.seg].Seconds += dt
}

// segment returns the index of lastKey's segment, appending it on the
// cause's first charge. It scans: a job meets at most 77 distinct causes on
// the streams measured (DESIGN §13), where a scan costs less time and fewer
// bytes than a map per job.
func (st *jobFold) segment() int {
	k := st.lastKey
	for i, sg := range st.ja.Segments {
		if sg.Reason == k.reason && sg.BlockedBySeq == k.bySeq {
			return i
		}
	}
	st.ja.Segments = append(st.ja.Segments, Segment{Reason: k.reason, BlockedBy: st.lastBy, BlockedBySeq: k.bySeq})
	return len(st.ja.Segments) - 1
}

// Add folds the next record of the stream in. A Round record charges the
// interval since the previous round to every job whose latest record is a
// skip — the additions a skip line per job per round used to make, in the
// same order, so the sums are bit-equal to those over the stream's
// expansion (decisiontest.Expand). A Skip record charges its own job up to
// now (nothing, right after a Round record) and becomes the cause in force;
// any other outcome charges the job's last interval and ends its history.
func (f *Fold) Add(rec *Record) {
	f.n++
	if rec.Outcome == Round {
		live := f.held[:0]
		for _, st := range f.held {
			if st.done {
				continue
			}
			st.charge(rec.T)
			st.lastT = rec.T
			live = append(live, st)
		}
		clear(f.held[len(live):])
		f.held = live
		return
	}
	st, ok := f.jobs[rec.Seq]
	if !ok {
		if f.jobs == nil {
			f.jobs = map[int]*jobFold{}
		}
		st = &jobFold{ja: JobAttribution{Seq: rec.Seq, Job: rec.Job}}
		f.jobs[rec.Seq] = st
		f.seqs = append(f.seqs, rec.Seq)
	}
	if st.done {
		return
	}
	st.charge(rec.T)
	if rec.Outcome == Skip {
		if !st.haveSkip {
			st.haveSkip = true
			f.held = append(f.held, st)
		}
		st.lastT = rec.T
		st.lastKey = segKey{reason: rec.Reason, bySeq: rec.BlockedBySeq}
		st.lastBy = rec.BlockedBy
		st.seg = -1
		return
	}
	st.ja.Outcome = rec.Outcome
	st.ja.Reason = rec.Reason
	st.ja.Decided = rec.T
	st.ja.Wait = rec.Wait
	st.ja.Submit = rec.T - rec.Wait
	st.done = true
}

// Records is how many records have been added.
func (f *Fold) Records() int { return f.n }

// Jobs returns the per-job wait attributions folded so far, ordered by
// submission sequence. Jobs without a terminal record (still pending when
// the log ends) are omitted.
func (f *Fold) Jobs() []JobAttribution {
	seqs := append([]int(nil), f.seqs...)
	sort.Ints(seqs)
	out := make([]JobAttribution, 0, len(seqs))
	for _, seq := range seqs {
		if st := f.jobs[seq]; st.done {
			out = append(out, st.ja)
		}
	}
	return out
}

// Attribute folds a recorded decision stream into per-job wait
// attributions, ordered by submission sequence. Jobs without a terminal
// record (still pending when the log ends) are omitted. The interval
// between consecutive rounds is charged to the skip in force at the
// interval's start; same-cause intervals merge into one segment.
func Attribute(recs []Record) []JobAttribution {
	var f Fold
	for i := range recs {
		f.Add(&recs[i])
	}
	return f.Jobs()
}
