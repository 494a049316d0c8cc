package decision

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtAttribution is JobAttribution.String as fmt rendered it: the oracle for
// the append-based renderer.
func fmtAttribution(ja JobAttribution) string {
	verb := map[Outcome]string{
		Admit: "admitted", Drop: "dropped", MemoHit: "served from cache",
		MemoWait: "attached to in-flight twin", Coalesce: "coalesced onto donor",
	}[ja.Outcome]
	if verb == "" {
		verb = string(ja.Outcome)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s after %.4fs queued", ja.Job, verb, ja.Wait)
	for i, seg := range ja.Segments {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4fs %s", seg.Seconds, seg.Reason)
		if seg.BlockedBy != "" {
			fmt.Fprintf(&b, " behind %s", seg.BlockedBy)
		}
	}
	return b.String()
}

// attributionSeconds draws a wait or segment length: ordinary values, the
// ones that round at the fourth decimal, and the non-finite ones.
func attributionSeconds(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return math.Float64frombits(r.Uint64())
	case 5:
		return float64(r.Intn(100000)) / 1e5 // ties at the fifth decimal
	default:
		return r.Float64() * 1e4
	}
}

// TestAttributionStringMatchesFmt: over random attributions — every outcome,
// one this package does not know, no outcome, zero to many segments, NaN and
// ±Inf seconds — String renders fmt's bytes, and Append appends them.
func TestAttributionStringMatchesFmt(t *testing.T) {
	outcomes := []Outcome{Admit, Skip, Drop, MemoHit, MemoWait, Coalesce, Round, "preempted", ""}
	reasons := []Reason{InsufficientRanks, ShadowReservation, ConcurrencyCap, HeadOfLine,
		DeadlineDrop, WaitingOnTwin, Backfill, ""}
	names := []string{"", "sum-0", "hist-00042", "a b", "é%s"}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		ja := JobAttribution{Seq: i, Job: names[r.Intn(len(names))], Wait: attributionSeconds(r),
			Outcome: outcomes[r.Intn(len(outcomes))]}
		for n := r.Intn(7); n > 0; n-- {
			ja.Segments = append(ja.Segments, Segment{Reason: reasons[r.Intn(len(reasons))],
				BlockedBy: names[r.Intn(len(names))], BlockedBySeq: r.Intn(5) - 1, Seconds: attributionSeconds(r)})
		}
		want := fmtAttribution(ja)
		if got := ja.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if got := string(ja.Append([]byte("(explain: "))); got != "(explain: "+want {
			t.Fatalf("Append = %q, want %q", got, "(explain: "+want)
		}
	}
}

// TestAttributionStringAllocBound: a sentence of a few segments is built on
// the stack, so String allocates its result and nothing else, and Append into
// a grown buffer allocates nothing.
func TestAttributionStringAllocBound(t *testing.T) {
	ja := JobAttribution{Seq: 4, Job: "hist-00004", Outcome: Admit, Wait: 14.2, Segments: []Segment{
		{Reason: InsufficientRanks, BlockedBy: "sum-00000", BlockedBySeq: 0, Seconds: 12.1},
		{Reason: HeadOfLine, BlockedBy: "sum-00003", BlockedBySeq: 3, Seconds: 2.1},
	}}
	var s string
	if got := testing.AllocsPerRun(200, func() { s = ja.String() }); got > 1 {
		t.Errorf("String allocates %v times per call, want <= 1 (%q)", got, s)
	}
	buf := ja.Append(nil)
	if got := testing.AllocsPerRun(200, func() { buf = ja.Append(buf[:0]) }); got != 0 {
		t.Errorf("Append into a grown buffer allocates %v times per call, want 0", got)
	}
}
