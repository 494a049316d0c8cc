package decision

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsonl"
)

func TestFormatParseRanksRoundTrip(t *testing.T) {
	cases := []struct {
		ranks []int
		want  string
	}{
		{nil, ""},
		{[]int{0}, "0"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 1, 2, 3, 12, 14, 15}, "0-3,12,14-15"},
		{[]int{5, 7, 9}, "5,7,9"},
		{[]int{0, 63, 64, 65, 127}, "0,63-65,127"},
	}
	for _, c := range cases {
		got := FormatRanks(c.ranks)
		if got != c.want {
			t.Errorf("FormatRanks(%v) = %q, want %q", c.ranks, got, c.want)
		}
		back, err := ParseRanks(got)
		if err != nil {
			t.Fatalf("ParseRanks(%q): %v", got, err)
		}
		if len(back) != len(c.ranks) || (len(back) > 0 && !reflect.DeepEqual(back, c.ranks)) {
			t.Errorf("ParseRanks(%q) = %v, want %v", got, back, c.ranks)
		}
	}
	if _, err := ParseRanks("3-1"); err == nil {
		t.Error("ParseRanks(\"3-1\") accepted a descending range")
	}
	if _, err := ParseRanks("x"); err == nil {
		t.Error("ParseRanks(\"x\") accepted garbage")
	}
}

// sampleRecords is a tiny but representative stream: one job skipped for
// one cause, then another, then admitted; one backfill; one drop. Round 3
// changes nothing for wide-1, so its shadow-reservation skip holds through
// it and the round writes only its Round record.
func sampleRecords() []Record {
	return []Record{
		{Round: 1, T: 0, Policy: "easy-backfill", Job: "narrow-2", Seq: 2,
			Outcome: Admit, Reason: Backfill, Shadow: 50,
			Width: 8, Wait: 0, Free: 16, FreeRanks: "48-63", Ranks: "48-55"},
		{Round: 1, T: 0, Policy: "easy-backfill", Outcome: Round,
			Free: 8, FreeRanks: "56-63", Pending: 1},
		{Round: 1, T: 0, Policy: "easy-backfill", Job: "wide-1", Seq: 1,
			Outcome: Skip, Reason: InsufficientRanks,
			BlockedBy: "wide-0", BlockedBySeq: 0, Width: 24, Submit: 0},
		{Round: 2, T: 10, Policy: "easy-backfill", Outcome: Round,
			Free: 8, FreeRanks: "56-63", Pending: 1},
		{Round: 2, T: 10, Policy: "easy-backfill", Job: "wide-1", Seq: 1,
			Outcome: Skip, Reason: ShadowReservation, Shadow: 50,
			BlockedBy: "wide-0", BlockedBySeq: 0, Width: 24, Wait: 10, Submit: 0},
		{Round: 3, T: 30, Policy: "easy-backfill", Outcome: Round,
			Free: 16, FreeRanks: "48-63", Pending: 1},
		{Round: 4, T: 50, Policy: "easy-backfill", Job: "wide-1", Seq: 1,
			Outcome: Admit,
			Width:   24, Wait: 50, Free: 32, FreeRanks: "32-63", Ranks: "32-55"},
		{Round: 5, T: 60, Policy: "easy-backfill", Job: "late-3", Seq: 3,
			Outcome: Drop, Reason: DeadlineDrop,
			Width: 4, Wait: 55, Free: 8, FreeRanks: "56-63",
			BlockedBySeq: -1},
	}
}

// sampleRecordsV1 is the same run as repro.decisions.v1 recorded it: a skip
// record per pending job per round, each with its own wait and free-rank
// snapshot, and no Round records.
func sampleRecordsV1() []Record {
	skip := func(round int, t float64, reason Reason, shadow float64, free int, ranks string) Record {
		return Record{Round: round, T: t, Policy: "easy-backfill", Job: "wide-1", Seq: 1,
			Outcome: Skip, Reason: reason, Shadow: shadow, BlockedBy: "wide-0", BlockedBySeq: 0,
			Width: 24, Wait: t, Free: free, FreeRanks: ranks}
	}
	v2 := sampleRecords()
	return []Record{
		v2[0],
		skip(1, 0, InsufficientRanks, 0, 8, "56-63"),
		skip(2, 10, ShadowReservation, 50, 8, "56-63"),
		skip(3, 30, ShadowReservation, 50, 16, "48-63"),
		v2[6], v2[7],
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	recs := sampleRecords()
	log := AppendLog(nil, recs)
	// Byte determinism of the serializer itself.
	if !bytes.Equal(log, AppendLog(nil, sampleRecords())) {
		t.Fatal("AppendLog is not deterministic")
	}
	if n := bytes.Count(log, []byte(`"v":"repro.decisions.v2"`)); n != len(recs) {
		t.Fatalf("%d of %d lines carry the v2 schema tag", n, len(recs))
	}
	got, err := ReadLog(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadLog returned %d records, want %d", len(got), len(recs))
	}
	// Re-serializing the parsed records must reproduce the bytes exactly.
	if back := AppendLog(nil, got); !bytes.Equal(back, log) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", back, log)
	}
	// Normalized comparison: unset BlockedBySeq comes back as -1.
	want := sampleRecords()
	for i := range want {
		if want[i].BlockedBy == "" {
			want[i].BlockedBySeq = -1
		}
		// Shadow only survives for the reasons that serialize it.
		if want[i].Reason != ShadowReservation && want[i].Reason != Backfill {
			want[i].Shadow = 0
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestLineShapes pins which keys each outcome's line carries.
func TestLineShapes(t *testing.T) {
	recs := sampleRecords()
	for _, c := range []struct {
		rec  Record
		want string
	}{
		{recs[1], `{"e":"decision","v":"repro.decisions.v2","round":1,"t":0,"policy":"easy-backfill","outcome":"round","free":8,"free_ranks":"56-63","pending":1}`},
		{recs[4], `{"e":"decision","v":"repro.decisions.v2","round":2,"t":10,"policy":"easy-backfill","job":"wide-1","seq":1,"outcome":"skip","reason":"shadow-reservation","blocked_by":"wide-0","blocked_seq":0,"width":24,"submit":0,"shadow":50}`},
		{recs[6], `{"e":"decision","v":"repro.decisions.v2","round":4,"t":50,"policy":"easy-backfill","job":"wide-1","seq":1,"outcome":"admit","width":24,"wait":50,"free":32,"free_ranks":"32-63","ranks":"32-55"}`},
	} {
		if got := string(AppendJSON(nil, c.rec)); got != c.want {
			t.Errorf("AppendJSON:\n got: %s\nwant: %s", got, c.want)
		}
	}
}

// decodeLine reads one decision line into r.
func decodeLine(line []byte, r *Record) error {
	var d jsonl.Dec
	d.Reset(line)
	return Decode(&d, r)
}

// TestDecodeNormalizes: keys in any order, unknown keys skipped, and what
// comes back is what AppendJSON writes again — a field the outcome's line
// does not carry is dropped whatever the line said, a skip's wait is its
// round's time minus its submit.
func TestDecodeNormalizes(t *testing.T) {
	line := `{"future":[1,{"x":null}],"submit":2.5,"width":4,"seq":7,"job":"j","outcome":"skip","reason":"head-of-line",` +
		`"wait":99,"free":3,"free_ranks":"0-2","pending":9,"shadow":5,"blocked_seq":-4,"blocked_by":"b",` +
		`"policy":"fifo","t":4,"round":2,"v":"repro.decisions.v2","e":"decision"}`
	var rec Record
	if err := decodeLine([]byte(line), &rec); err != nil {
		t.Fatal(err)
	}
	want := Record{Round: 2, T: 4, Policy: "fifo", Job: "j", Seq: 7, Outcome: Skip, Reason: HeadOfLine,
		BlockedBySeq: -1, Width: 4, Wait: 1.5, Submit: 2.5}
	if rec != want {
		t.Fatalf("decoded %+v, want %+v", rec, want)
	}
	var again Record
	if err := decodeLine(AppendJSON(nil, rec), &again); err != nil || again != rec {
		t.Fatalf("canonical line reads back as %+v (%v), want %+v", again, err, rec)
	}
	round := `{"e":"decision","v":"repro.decisions.v2","round":3,"t":1,"policy":"fifo","job":"x","seq":4,"outcome":"round","wait":7,"free":2,"free_ranks":"0-1","pending":5}`
	if err := decodeLine([]byte(round), &rec); err != nil {
		t.Fatal(err)
	}
	if want := (Record{Round: 3, T: 1, Policy: "fifo", Outcome: Round, BlockedBySeq: -1, Free: 2, FreeRanks: "0-1", Pending: 5}); rec != want {
		t.Fatalf("round record decoded %+v, want %+v", rec, want)
	}
}

func TestReadLogErrorsNameTheLine(t *testing.T) {
	good := string(AppendJSON(nil, sampleRecords()[0]))
	for _, bad := range []string{
		`{"e":"decision","v":"repro.decisions.v2","round":"one"}`,
		`{"e":"decision","v":"repro.decisions.v2","round":1`,
		`{"e":"decision","v":"repro.decisions.v2","round":1,"t":0,"policy":"fifo","outcome":"round","free":1.5}`,
		`{"e":"decision"}`,
	} {
		_, err := ReadLog(strings.NewReader(good + "\n" + `{"e":"span","t":0}` + "\n" + bad + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("ReadLog on %s: error %v, want one naming line 3", bad, err)
		}
	}
}

func TestAppendJSONZeroAlloc(t *testing.T) {
	recs := sampleRecords()
	buf := make([]byte, 0, 512)
	for _, rec := range []Record{recs[1], recs[4], recs[6]} {
		if got := testing.AllocsPerRun(200, func() { buf = AppendJSON(buf[:0], rec) }); got != 0 {
			t.Errorf("AppendJSON of a %s record allocates %v times per op, want 0", rec.Outcome, got)
		}
	}
}

func TestReadLogSkipsEventLines(t *testing.T) {
	recs := sampleRecords()
	var mixed bytes.Buffer
	mixed.WriteString(`{"schema":"repro.events.v1"}` + "\n")
	mixed.WriteString(`{"e":"begin","id":1,"t":0,"pid":0,"tid":0,"name":"run","cat":"sched"}` + "\n")
	mixed.Write(AppendLog(nil, recs[:2]))
	mixed.WriteString(`{"e":"sample","t":1,"name":"cluster_queue_depth","value":3}` + "\n")
	mixed.Write(AppendLog(nil, recs[2:]))
	got, err := ReadLog(&mixed)
	if err != nil {
		t.Fatalf("ReadLog(mixed): %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadLog(mixed) returned %d records, want %d", len(got), len(recs))
	}
	if !bytes.Equal(AppendLog(nil, got), AppendLog(nil, recs)) {
		t.Fatal("mixed-log extraction changed the records")
	}
}

// expectSchemaError checks that each line, read after one good line, is a
// schema error naming line 2 and that no records come back.
func expectSchemaError(t *testing.T, lines ...string) {
	t.Helper()
	good := string(AppendJSON(nil, sampleRecords()[0])) + "\n"
	for _, line := range lines {
		recs, err := ReadLog(strings.NewReader(good + line + "\n"))
		if err == nil || recs != nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "schema") {
			t.Errorf("ReadLog on %s: %d records, error %v; want a schema error naming line 2", line, len(recs), err)
		}
	}
}

// TestReadLogRejectsWrongSchema: a decision line of a future schema is an
// error naming its line.
func TestReadLogRejectsWrongSchema(t *testing.T) {
	expectSchemaError(t,
		`{"e":"decision","v":"repro.decisions.v999","round":1,"t":0,"policy":"fifo","job":"a","seq":0,"outcome":"admit","width":1,"wait":0,"free":1,"free_ranks":"0"}`)
}

// TestReadLogRejectsV1: v1, which wrote a skip line per pending job per
// round, is no longer read; its lines are schema errors like any other.
func TestReadLogRejectsV1(t *testing.T) {
	expectSchemaError(t,
		`{"e":"decision","v":"repro.decisions.v1","round":1,"t":0,"policy":"fifo","job":"sum-0","seq":0,"outcome":"admit","width":4,"wait":0,"free":16,"free_ranks":"0-15","ranks":"0-3"}`,
		`{"e":"decision","v":"repro.decisions.v1","round":2,"t":1.5,"policy":"fifo","job":"hist-4","seq":4,"outcome":"skip","reason":"insufficient-ranks","blocked_by":"sum-0","blocked_seq":0,"width":4,"wait":0.25,"free":0,"free_ranks":""}`)
}

// TestAttributeReadsBothForms: the one fold gives the held-skip stream and
// the skip-per-round stream of the same run the same attributions, and
// folding record by record is folding the slice.
func TestAttributeReadsBothForms(t *testing.T) {
	v2, v1 := Attribute(sampleRecords()), Attribute(sampleRecordsV1())
	if !reflect.DeepEqual(v2, v1) {
		t.Fatalf("attributions differ between the two forms:\n v2: %+v\n v1: %+v", v2, v1)
	}
	var f Fold
	recs := sampleRecords()
	for i := range recs {
		f.Add(&recs[i])
	}
	if f.Records() != len(recs) || !reflect.DeepEqual(f.Jobs(), v2) {
		t.Fatalf("Fold: %d records, %+v", f.Records(), f.Jobs())
	}
}

func TestAttribute(t *testing.T) {
	atts := Attribute(sampleRecords())
	if len(atts) != 3 {
		t.Fatalf("got %d attributions, want 3 terminal jobs: %+v", len(atts), atts)
	}
	for i := 1; i < len(atts); i++ {
		if atts[i].Seq <= atts[i-1].Seq {
			t.Fatalf("attributions not ordered by seq: %+v", atts)
		}
	}
	bySeq := map[int]JobAttribution{}
	for _, ja := range atts {
		bySeq[ja.Seq] = ja
	}
	w := bySeq[1]
	if w.Outcome != Admit || math.Abs(w.Wait-50) > 1e-12 {
		t.Fatalf("wide-1 attribution: %+v", w)
	}
	if len(w.Segments) != 2 {
		t.Fatalf("wide-1 segments: %+v", w.Segments)
	}
	if w.Segments[0].Reason != InsufficientRanks || math.Abs(w.Segments[0].Seconds-10) > 1e-12 {
		t.Errorf("wide-1 segment 0: %+v", w.Segments[0])
	}
	if w.Segments[1].Reason != ShadowReservation || math.Abs(w.Segments[1].Seconds-40) > 1e-12 {
		t.Errorf("wide-1 segment 1: %+v", w.Segments[1])
	}
	var sum float64
	for _, seg := range w.Segments {
		sum += seg.Seconds
	}
	if math.Abs(sum-w.Wait) > 1e-9 {
		t.Errorf("wide-1 segments sum %.6f, wait %.6f", sum, w.Wait)
	}
	if w.Submit != 0 || w.Decided != 50 {
		t.Errorf("wide-1 submit/decided: %+v", w)
	}
	s := w.String()
	if !strings.Contains(s, "behind wide-0") || !strings.Contains(s, "insufficient-ranks") {
		t.Errorf("attribution sentence %q missing cause", s)
	}
	if d := bySeq[3]; d.Outcome != Drop || d.Reason != DeadlineDrop {
		t.Errorf("late-3 attribution: %+v", d)
	}
	if n := bySeq[2]; n.Outcome != Admit || len(n.Segments) != 0 || n.Wait != 0 {
		t.Errorf("narrow-2 attribution: %+v", n)
	}
}

func TestAttributeOmitsNonTerminalJobs(t *testing.T) {
	recs := []Record{
		{Round: 1, T: 0, Policy: "fifo", Job: "stuck", Seq: 0,
			Outcome: Skip, Reason: InsufficientRanks, BlockedBySeq: -1,
			Width: 8, Free: 4, FreeRanks: "0-3"},
	}
	if atts := Attribute(recs); len(atts) != 0 {
		t.Fatalf("non-terminal job attributed: %+v", atts)
	}
}
