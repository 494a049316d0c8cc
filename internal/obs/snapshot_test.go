package obs

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs/decision"
)

func admitRecord(i int) decision.Record {
	return decision.Record{Round: i + 1, T: float64(i), Policy: "fifo", Job: "j", Seq: i,
		Outcome: decision.Admit, BlockedBySeq: -1}
}

// TestDecisionsSnapshotCopiesNothing: a live frame's decision snapshot is a
// length-capped view of the tracer's own storage, so publishing one costs
// the same — no allocation at all — whether the stream holds ten records or
// a hundred thousand. (It used to be a full copy per frame.)
func TestDecisionsSnapshotCopiesNothing(t *testing.T) {
	for _, n := range []int{10, 100_000} {
		tr := New()
		tr.EnableDecisions()
		for i := 0; i < n; i++ {
			tr.Decision(admitRecord(i))
		}
		var snap []decision.Record
		if got := testing.AllocsPerRun(100, func() { snap = tr.DecisionsSnapshot() }); got != 0 {
			t.Errorf("snapshot of a %d-record stream allocates %v times, want 0", n, got)
		}
		if len(snap) != n || cap(snap) != n || &snap[0] != &tr.Decisions()[0] {
			t.Errorf("snapshot of a %d-record stream: len %d cap %d, shares storage: %v",
				n, len(snap), cap(snap), &snap[0] == &tr.Decisions()[0])
		}
	}
	if New().DecisionsSnapshot() != nil {
		t.Error("snapshot of an empty stream is not nil")
	}
}

// TestOldFrameUnchangedByLaterAppends: a reader holding a published frame
// reads the same records however far the stream has grown since — appends
// land beyond the frame's view (or in a new array) and recorded records are
// never rewritten. Run under -race: the reader and the appender overlap.
func TestOldFrameUnchangedByLaterAppends(t *testing.T) {
	tr := New()
	tr.EnableDecisions()
	live := NewLive()
	for i := 0; i < 100; i++ {
		tr.Decision(admitRecord(i))
	}
	live.Publish(&Frame{Now: 1, Decisions: tr.DecisionsSnapshot()})
	frame := live.Latest()
	want := append([]decision.Record(nil), frame.Decisions...)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !reflect.DeepEqual(frame.Decisions, want) {
				t.Error("a held frame's decisions changed under later appends")
				return
			}
			// A reader appending to its view must not write into the stream.
			_ = append(frame.Decisions, decision.Record{Job: "reader's own"})
		}
	}()
	for i := 100; i < 20_000; i++ {
		tr.Decision(admitRecord(i))
		if i%1000 == 0 {
			live.Publish(&Frame{Now: float64(i), Decisions: tr.DecisionsSnapshot()})
		}
	}
	close(stop)
	wg.Wait()
	if !reflect.DeepEqual(frame.Decisions, want) || len(live.Latest().Decisions) <= len(want) {
		t.Fatalf("held frame: %d records (want %d unchanged); latest frame: %d",
			len(frame.Decisions), len(want), len(live.Latest().Decisions))
	}
	for i, rec := range tr.Decisions() {
		if rec != admitRecord(i) {
			t.Fatalf("stream record %d is %+v: a reader's append reached the stream", i, rec)
		}
	}
}
