package cluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/obs/decision/decisiontest"
	"repro/internal/workload"
)

// The decision streams of generated workloads, pinned by their bytes: the
// repro.decisions.v2 log of ccexp's N-job stream at 4x the service rate. The
// logs run to megabytes, so what is committed is their SHA-256 and line
// count, as
//
//	ccexp -workload jobs=N,rate=4,rates=1,policy=P -explain -events e.jsonl workload
//	grep '"e":"decision"' e.jsonl | sha256sum
//
// prints them. They were recorded at commit c211458, where each stream still
// expanded, byte for byte, to the v1 log (a skip line per pending job per
// round) that the last v1 binary, commit 8874887, wrote for the same stream;
// v1Lines is that log's length, which the expansion must still have. ccexp's
// stream for that command line is workload.DefaultSpec(42, 4, 12, N, P).
// Every policy has a row because each blames differently: fifo and the
// reordering policies by head-of-line, EASY by a shadow reservation whose
// start time moves from round to round while the reserving head stays — the
// one part of a cause that no other stream changes on its own.
var streamLogs = []struct {
	policy  string
	jobs    int
	lines   int
	sha     string
	v1Lines int
}{
	{"priority", 400, 5192, "9d94ab70f416644c311884ef0191876b8536d13e4b29ab14d552b7d696418103", 43958},
	{"fifo", 400, 6861, "3dc86e74495d51ab4d7f2d4c3cec1308fb03ecc0e93a6623938a45958e60bb55", 78671},
	{"easy-backfill", 400, 4624, "eeeabb64c5b29a5b2d6db0f61c967ed9e14837d1675b9b96a395c4fc866c5e0d", 44137},
	{"fairshare", 400, 7552, "165cd458a52d91b9f1c93b367f7938cff25a1be602bb149b08c22e3a9355fbf3", 80779},
}

// The priority stream at N = 6000: 36 720 records, expanding to 1 255 929.
const (
	sha6000     = "d22cc2059b9d1fbdeca21d58c0cdd56d9eb1a54c38d4999c4d87b854629d90df"
	lines6000   = 36720
	v1Lines6000 = 1255929
)

// streamDecisions runs ccexp's N-job stream under the policy with decision
// tracing on and returns the records.
func streamDecisions(t *testing.T, jobs int, policy string) []decision.Record {
	t.Helper()
	horizon := 12.0 // ccexp's default-scale horizon; wider when N needs it
	if need := float64(jobs) / (20 * 4) * 1.3; horizon < need {
		horizon = need
	}
	tr, err := workload.Generate(workload.DefaultSpec(42, 4, horizon, jobs, policy))
	if err != nil {
		t.Fatal(err)
	}
	ot := obs.New()
	ot.EnableDecisions()
	if _, _, err := workload.Run(tr, ot); err != nil {
		t.Fatal(err)
	}
	return ot.Decisions()
}

// logSHA hashes the canonical log of recs.
func logSHA(recs []decision.Record) string {
	sum := sha256.Sum256(decision.AppendLog(nil, recs))
	return hex.EncodeToString(sum[:])
}

// checkStream holds one recorded stream to its pinned log and to the
// attribution oracle, and returns how many lines its expansion has.
func checkStream(t *testing.T, name string, recs []decision.Record, lines int, sha string) int {
	t.Helper()
	if sum := logSHA(recs); len(recs) != lines || sum != sha {
		t.Fatalf("%s: %d records, sha256 %s; the recorded log has %d lines, sha256 %s",
			name, len(recs), sum, lines, sha)
	}
	expanded, err := decisiontest.CheckFoldsAgree(recs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return len(expanded)
}

func TestStreamDecisionLogsMatchRecordedHashes(t *testing.T) {
	var recs []decision.Record // the priority stream's, for the mutations below
	for i, c := range streamLogs {
		got := streamDecisions(t, c.jobs, c.policy)
		n := checkStream(t, c.policy, got, c.lines, c.sha)
		if n != c.v1Lines {
			t.Fatalf("%s: expands to %d lines, the v1 binary wrote %d", c.policy, n, c.v1Lines)
		}
		if len(got) > n/5 {
			t.Fatalf("%s: %d records written for %d a v1 log holds: skips are not being held", c.policy, len(got), n)
		}
		t.Logf("%s: %d records expand to %d lines", c.policy, len(got), n)
		if i == 0 {
			recs = got
		}
	}

	// The pin is only worth what it catches: each of these single-record
	// corruptions of the stream must move the hash or fail the oracle.
	change, late, round := -1, -1, -1 // indices of records to corrupt
	skipped := map[int]bool{}
	for i, r := range recs {
		switch {
		case r.Outcome == decision.Round && round < 0:
			round = i
		case r.Outcome == decision.Skip:
			if skipped[r.Seq] && change < 0 {
				change = i // a job's second skip: its cause changed
			}
			skipped[r.Seq] = true
			if r.Submit > 0 && late < 0 {
				late = i
			}
		}
	}
	if change < 0 || late < 0 || round < 0 {
		t.Fatalf("stream has nothing to corrupt: change %d late %d round %d", change, late, round)
	}
	for name, mutate := range map[string]func(m []decision.Record) []decision.Record{
		"drop one change record": func(m []decision.Record) []decision.Record { return append(m[:change], m[change+1:]...) },
		"perturb one submit":     func(m []decision.Record) []decision.Record { m[late].Submit *= 1 + 0x1p-52; return m },
		"perturb one pending":    func(m []decision.Record) []decision.Record { m[round].Pending++; return m },
	} {
		m := mutate(append([]decision.Record(nil), recs...))
		if _, err := decisiontest.CheckFoldsAgree(m); err == nil && logSHA(m) == streamLogs[0].sha {
			t.Errorf("mutation %q goes unnoticed: same hash, no error", name)
		}
	}
}

// TestLongStreamDecisionLogMatchesRecordedHash is the same pin on the
// 6000-job stream, whose expansion the oracle folds three ways: a few
// seconds, so the nightly runs it (REPRO_NIGHTLY=1), tier 1 does not.
func TestLongStreamDecisionLogMatchesRecordedHash(t *testing.T) {
	if os.Getenv("REPRO_NIGHTLY") == "" {
		t.Skip("6000-job stream; set REPRO_NIGHTLY=1")
	}
	recs := streamDecisions(t, 6000, "priority")
	if n := checkStream(t, "priority", recs, lines6000, sha6000); n != v1Lines6000 {
		t.Fatalf("expands to %d lines, the v1 binary wrote %d", n, v1Lines6000)
	}
}
