package decisiontest

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs/decision"
)

// stream is a hand-built v2 run: a and b blocked behind r from round 1, b's
// cause changes in round 2, a is admitted in round 3 while c arrives.
func stream() []decision.Record {
	skip := func(round int, t float64, job string, seq int, by string, bySeq int, submit float64) decision.Record {
		return decision.Record{Round: round, T: t, Policy: "fifo", Job: job, Seq: seq, Outcome: decision.Skip,
			Reason: decision.InsufficientRanks, BlockedBy: by, BlockedBySeq: bySeq, Width: 4, Wait: t - submit, Submit: submit}
	}
	round := func(round int, t float64, free int, ranks string, pending int) decision.Record {
		return decision.Record{Round: round, T: t, Policy: "fifo", Outcome: decision.Round, BlockedBySeq: -1,
			Free: free, FreeRanks: ranks, Pending: pending}
	}
	return []decision.Record{
		{Round: 1, T: 0, Policy: "fifo", Job: "r", Seq: 0, Outcome: decision.Admit, BlockedBySeq: -1,
			Width: 8, Free: 8, FreeRanks: "0-7", Ranks: "0-7"},
		round(1, 0, 0, "", 2),
		skip(1, 0, "a", 1, "r", 0, 0),
		skip(1, 0, "b", 2, "r", 0, 0),
		round(2, 1.5, 0, "", 2),
		skip(2, 1.5, "b", 2, "a", 1, 0),
		{Round: 3, T: 4, Policy: "fifo", Job: "a", Seq: 1, Outcome: decision.Admit, BlockedBySeq: -1,
			Width: 4, Wait: 4, Free: 8, FreeRanks: "0-7", Ranks: "0-3"},
		round(3, 4, 4, "4-7", 2),
		skip(3, 4, "c", 3, "a", 1, 3.25),
	}
}

func TestExpand(t *testing.T) {
	got, err := ExpandRecords(stream())
	if err != nil {
		t.Fatal(err)
	}
	v1skip := func(round int, t float64, job string, seq int, by string, bySeq int, wait float64, free int, ranks string) decision.Record {
		return decision.Record{Round: round, T: t, Policy: "fifo", Job: job, Seq: seq, Outcome: decision.Skip,
			Reason: decision.InsufficientRanks, BlockedBy: by, BlockedBySeq: bySeq, Width: 4, Wait: wait,
			Free: free, FreeRanks: ranks}
	}
	s := stream()
	want := []decision.Record{
		s[0],
		v1skip(1, 0, "a", 1, "r", 0, 0, 0, ""),
		v1skip(1, 0, "b", 2, "r", 0, 0, 0, ""),
		v1skip(2, 1.5, "a", 1, "r", 0, 1.5, 0, ""), // held: written once, in force twice
		v1skip(2, 1.5, "b", 2, "a", 1, 1.5, 0, ""),
		s[6],
		v1skip(3, 4, "b", 2, "a", 1, 4, 4, "4-7"), // held through a round that changed nothing for it
		v1skip(3, 4, "c", 3, "a", 1, 0.75, 4, "4-7"),
	}
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i:])
			}
		}
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	if _, err := CheckFoldsAgree(stream()); err != nil {
		t.Fatal(err)
	}
}

// TestExpandChecksTheStream: each promise of the format, broken, is an error.
func TestExpandChecksTheStream(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func([]decision.Record) []decision.Record
		want   string
	}{
		{"dropped first skip", func(s []decision.Record) []decision.Record { return append(s[:3], s[4:]...) }, "pending=2"},
		{"wrong pending", func(s []decision.Record) []decision.Record { s[7].Pending = 3; return s }, "pending=3"},
		{"skip before any round", func(s []decision.Record) []decision.Record { return s[2:] }, "outside its round"},
		{"skip of another round", func(s []decision.Record) []decision.Record { s[5].Round = 1; return s }, "outside its round"},
		{"skip after terminal", func(s []decision.Record) []decision.Record { s[8].Seq, s[8].Job = 1, "a"; return s }, "after its terminal"},
	} {
		if _, err := ExpandRecords(c.mutate(stream())); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
