// Package decisiontest is test support for the decision trace: the proof
// that repro.decisions.v2, which writes a skip only when its cause changes,
// lost nothing against repro.decisions.v1, which wrote one skip line per
// pending job per round. Expand turns a v2 stream back into the v1 stream of
// the same run, and AppendV1 is the v1 line writer as it stood when the v1
// goldens were recorded, so Expand of a fresh run can be compared byte for
// byte with logs the old scheduler wrote. Only _test files import it (the
// oracles live in three test packages, which a _test file cannot serve).
package decisiontest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs/decision"
)

// held is one job's skip in force.
type held struct {
	rec  decision.Record
	live bool // false once the job has a terminal record
}

// Expand rewrites a v2 decision stream as v1 wrote the same run: terminal
// records pass through, and every Round record becomes one skip record per
// job whose latest record is a skip — the job's held cause, the round's time
// and free-rank snapshot, wait = the round's T minus the skip's Submit — in
// the order of the jobs' first skips, which is the order the scheduler walks
// its pending queue in. It checks what the format promises on the way: a
// skip belongs to the Round record before it, a job is not skipped after its
// terminal record, and every round's Pending is the number of skips in force
// once its changes are applied. emit receives v1 records (no Submit, no
// Round records), valid during the call; write them with AppendV1.
func Expand(recs []decision.Record, emit func(*decision.Record)) error {
	var (
		order []*held // first-skip order; dead entries dropped at each flush
		bySeq = map[int]*held{}
		open  *decision.Record // the round whose skips are being read
	)
	flush := func() error {
		if open == nil {
			return nil
		}
		live := order[:0]
		for _, h := range order {
			if !h.live {
				continue
			}
			live = append(live, h)
			r := h.rec
			r.Round, r.T, r.Policy = open.Round, open.T, open.Policy
			r.Wait, r.Submit = open.T-h.rec.Submit, 0
			r.Free, r.FreeRanks = open.Free, open.FreeRanks
			emit(&r)
		}
		order = live
		if len(live) != open.Pending {
			return fmt.Errorf("round %d: %d skips in force, record says pending=%d",
				open.Round, len(live), open.Pending)
		}
		open = nil
		return nil
	}
	for i := range recs {
		r := &recs[i]
		switch r.Outcome {
		case decision.Round:
			if err := flush(); err != nil {
				return err
			}
			open = r
		case decision.Skip:
			if open == nil || r.Round != open.Round || r.T != open.T {
				return fmt.Errorf("record %d: skip of %s (round %d) outside its round record", i, r.Job, r.Round)
			}
			h := bySeq[r.Seq]
			switch {
			case h == nil:
				h = &held{live: true}
				bySeq[r.Seq] = h
				order = append(order, h)
			case !h.live:
				return fmt.Errorf("record %d: skip of %s after its terminal record", i, r.Job)
			}
			h.rec = *r
		default:
			if err := flush(); err != nil {
				return err
			}
			if h := bySeq[r.Seq]; h != nil {
				h.live = false
			}
			emit(r)
		}
	}
	return flush()
}

// ExpandRecords is Expand collected into a slice.
func ExpandRecords(recs []decision.Record) ([]decision.Record, error) {
	var out []decision.Record
	err := Expand(recs, func(r *decision.Record) { out = append(out, *r) })
	return out, err
}

// AppendV1 appends r as a repro.decisions.v1 line: the serializer the v1
// goldens were written with, kept as it was (its own float and string
// rendering, independent of internal/jsonl).
func AppendV1(dst []byte, r decision.Record) []byte {
	dfloat := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	dstr := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	var b strings.Builder
	b.WriteString(`{"e":"decision","v":` + dstr(decision.SchemaV1))
	b.WriteString(`,"round":` + strconv.Itoa(r.Round))
	b.WriteString(`,"t":` + dfloat(r.T))
	b.WriteString(`,"policy":` + dstr(r.Policy))
	b.WriteString(`,"job":` + dstr(r.Job))
	b.WriteString(`,"seq":` + strconv.Itoa(r.Seq))
	b.WriteString(`,"outcome":` + dstr(string(r.Outcome)))
	if r.Reason != "" {
		b.WriteString(`,"reason":` + dstr(string(r.Reason)))
	}
	if r.BlockedBySeq >= 0 && r.BlockedBy != "" {
		b.WriteString(`,"blocked_by":` + dstr(r.BlockedBy))
		b.WriteString(`,"blocked_seq":` + strconv.Itoa(r.BlockedBySeq))
	}
	b.WriteString(`,"width":` + strconv.Itoa(r.Width))
	b.WriteString(`,"wait":` + dfloat(r.Wait))
	b.WriteString(`,"free":` + strconv.Itoa(r.Free))
	b.WriteString(`,"free_ranks":` + dstr(r.FreeRanks))
	if r.Ranks != "" {
		b.WriteString(`,"ranks":` + dstr(r.Ranks))
	}
	if r.Reason == decision.ShadowReservation || r.Reason == decision.Backfill {
		b.WriteString(`,"shadow":` + dfloat(r.Shadow))
	}
	b.WriteString("}")
	return append(dst, b.String()...)
}

// ExpandLog reads the decision lines of a v2 log (pure, or mixed with
// events) and returns the v1 lines they expand to.
func ExpandLog(log []byte) ([]byte, error) {
	recs, err := decision.ReadLog(bytes.NewReader(log))
	if err != nil {
		return nil, err
	}
	var out []byte
	err = Expand(recs, func(r *decision.Record) {
		out = append(AppendV1(out, *r), '\n')
	})
	return out, err
}

// AttributeV1 is decision.Attribute as it stood while every pending job had
// a skip record every round — no Round records, a record charges only its
// own job — kept as the reference the one fold that now reads both forms is
// held to: on a v1 stream the two must agree to the bit.
func AttributeV1(recs []decision.Record) []decision.JobAttribution {
	type segKey struct {
		reason decision.Reason
		bySeq  int
	}
	type state struct {
		ja       decision.JobAttribution
		lastT    float64
		lastKey  segKey
		lastBy   string
		haveSkip bool
		done     bool
		segIdx   map[segKey]int
	}
	states := map[int]*state{}
	var seqs []int
	charge := func(st *state, until float64) {
		if !st.haveSkip {
			return
		}
		dt := until - st.lastT
		if dt <= 0 {
			return
		}
		i, ok := st.segIdx[st.lastKey]
		if !ok {
			i = len(st.ja.Segments)
			st.segIdx[st.lastKey] = i
			st.ja.Segments = append(st.ja.Segments, decision.Segment{
				Reason: st.lastKey.reason, BlockedBy: st.lastBy,
				BlockedBySeq: st.lastKey.bySeq,
			})
		}
		st.ja.Segments[i].Seconds += dt
	}
	for _, rec := range recs {
		st, ok := states[rec.Seq]
		if !ok {
			st = &state{
				ja:     decision.JobAttribution{Seq: rec.Seq, Job: rec.Job},
				segIdx: map[segKey]int{},
			}
			states[rec.Seq] = st
			seqs = append(seqs, rec.Seq)
		}
		if st.done {
			continue
		}
		charge(st, rec.T)
		if rec.Outcome == decision.Skip {
			st.haveSkip = true
			st.lastT = rec.T
			st.lastKey = segKey{reason: rec.Reason, bySeq: rec.BlockedBySeq}
			st.lastBy = rec.BlockedBy
			continue
		}
		st.ja.Outcome = rec.Outcome
		st.ja.Reason = rec.Reason
		st.ja.Decided = rec.T
		st.ja.Wait = rec.Wait
		st.ja.Submit = rec.T - rec.Wait
		st.done = true
	}
	sort.Ints(seqs)
	out := make([]decision.JobAttribution, 0, len(seqs))
	for _, seq := range seqs {
		if st := states[seq]; st.done {
			out = append(out, st.ja)
		}
	}
	return out
}

// CheckFoldsAgree is the attribution oracle for one recorded v2 stream: the
// stream must expand (Expand's own checks included), decision.Attribute must
// give the same attributions — every Seconds bit-equal — for the stream and
// for its expansion, and on the expansion it must match AttributeV1. It
// returns the expansion.
func CheckFoldsAgree(v2 []decision.Record) ([]decision.Record, error) {
	v1, err := ExpandRecords(v2)
	if err != nil {
		return nil, err
	}
	got, viaV1, ref := decision.Attribute(v2), decision.Attribute(v1), AttributeV1(v1)
	if !reflect.DeepEqual(got, viaV1) {
		return nil, fmt.Errorf("Attribute(v2) differs from Attribute(Expand(v2)): %s", firstDiff(got, viaV1))
	}
	if !reflect.DeepEqual(viaV1, ref) {
		return nil, fmt.Errorf("Attribute on a v1 stream differs from the v1 fold: %s", firstDiff(viaV1, ref))
	}
	return v1, nil
}

func firstDiff(a, b []decision.JobAttribution) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("job %d:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("%d vs %d jobs", len(a), len(b))
}
