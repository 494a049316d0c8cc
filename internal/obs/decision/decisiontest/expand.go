// Package decisiontest is the attribution oracle of the decision trace.
// repro.decisions.v2 writes a skip only when a waiting job's cause changes;
// Expand turns such a stream back into the records of a skip per pending job
// per round, which is what the scheduler once wrote, and AttributeV1 is the
// fold that read those. CheckFoldsAgree holds decision.Attribute to that
// reference on any recorded stream. Only _test files import it (the oracles
// live in three test packages, which a _test file cannot serve).
package decisiontest

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/obs/decision"
)

// held is one job's skip in force.
type held struct {
	rec  decision.Record
	live bool // false once the job has a terminal record
}

// Expand rewrites a v2 decision stream as a skip per pending job per round: terminal
// records pass through, and every Round record becomes one skip record per
// job whose latest record is a skip — the job's held cause, the round's time
// and free-rank snapshot, wait = the round's T minus the skip's Submit — in
// the order of the jobs' first skips, which is the order the scheduler walks
// its pending queue in. It checks what the format promises on the way: a
// skip belongs to the Round record before it, a job is not skipped after its
// terminal record, and every round's Pending is the number of skips in force
// once its changes are applied. emit receives the expanded records (no
// Submit, no Round records), valid during the call.
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

// AttributeV1 is decision.Attribute as it stood while every pending job had
// a skip record every round — no Round records, a record charges only its
// own job — kept as the reference the one fold is held to: on an expanded
// stream the two must agree to the bit.
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
