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
