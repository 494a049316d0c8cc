package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// jobsFIFOEvents runs the jobs experiment (quick config, fifo scheduling)
// with the structured event log attached and returns the JSONL bytes.
func jobsFIFOEvents(t *testing.T) []byte {
	t.Helper()
	ot := obs.New()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	ot.AddSink(sink)
	cfg := quick
	cfg.Obs = ot
	if _, err := Jobs(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFIFOPolicyEventLogGolden pins the fifo scheduling policy to the
// pre-policy-refactor scheduler, byte for byte: the committed golden event
// log was generated by the monolithic FIFO scheduler (before admission and
// placement were extracted behind cluster.Policy), and the default policy
// must keep reproducing it exactly — same admissions, same placements, same
// virtual timestamps, same telemetry emission order. Regenerate with
// UPDATE_SCHED_GOLDEN=1 go test ./internal/experiments -run EventLogGolden
// only for an intentional scheduling-semantics change.
func TestFIFOPolicyEventLogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full jobs experiment; skipped under -short")
	}
	golden := filepath.Join("testdata", "jobs_fifo_events.golden.jsonl")
	got := jobsFIFOEvents(t)
	if os.Getenv("UPDATE_SCHED_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_SCHED_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		firstLineDiff(t, "fifo event log vs the pre-refactor scheduler's", got, want)
	}
}

// TestMultiuserEventLogGolden pins the memo layer's telemetry byte for byte:
// the event log of `ccexp -quick -explain -events e.jsonl multiuser`, whose
// warm run serves jobs from the result cache (memo-hit instants), attaches
// duplicates to an in-flight donor (memo-wait instants, waiter spans) and
// fuses other operators onto a donor's pass (coalesce-attach instants,
// coalesced spans), with the decision records of each. The golden was
// recorded before the serving experiments became workload traces.
// Regenerate with UPDATE_SCHED_GOLDEN=1 only for an intentional change to
// the memo layer's scheduling or telemetry.
func TestMultiuserEventLogGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full multiuser experiment; skipped under -short")
	}
	golden := filepath.Join("testdata", "multiuser_quick_events.golden.jsonl")
	ot := obs.New()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	ot.AddSink(sink)
	ot.EnableDecisions()
	cfg := quick
	cfg.Obs = ot
	if _, err := Multiuser(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	for _, name := range []string{`"memo-hit"`, `"memo-wait"`, `"waiter"`, `"coalesce-attach"`, `"coalesced"`} {
		if !bytes.Contains(got, []byte(`"name":`+name)) {
			t.Fatalf("the warm run's log has no %s event", name)
		}
	}
	if os.Getenv("UPDATE_SCHED_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_SCHED_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		firstLineDiff(t, "multiuser event log vs the recorded one", got, want)
	}
}
