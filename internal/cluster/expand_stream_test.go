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

// The expansion oracle on generated streams: the decision trace of a stream
// at 4x the service rate, expanded to the v1 form, must be byte for byte the
// decision log the last v1 binary (commit 8874887, PR 16) wrote for the same
// stream. The v1 logs run from 12 MB to 357 MB, so what is committed is
// their SHA-256 and line count, recorded from that binary with
//
//	ccexp -workload jobs=N,rate=4,rates=1,policy=P -explain -events e.jsonl workload
//	grep '"e":"decision"' e.jsonl | sha256sum
//
// ccexp's stream for that command line is
// workload.DefaultSpec(42, 4, 12, N, P). Every policy has a row because each
// blames differently: fifo and the reordering policies by head-of-line, EASY
// by a shadow reservation whose start time moves from round to round while
// the reserving head stays (4 712 of its lines) — the one part of a cause
// that no other stream changes on its own.
var v1Logs = []struct {
	policy string
	jobs   int
	lines  int
	sha    string
}{
	{"priority", 400, 43958, "47b19cde5bd615093daebe5470b23daa82fb114594ea5f01bb026348eab01d2e"},
	{"fifo", 400, 78671, "2b4ec414a2e1c6a72d677dbf3e8f0d42d1734dec1a4fccd9d481862cea1ac32a"},
	{"easy-backfill", 400, 44137, "381f87870e8d69f48a4140bf2922791fdd5afed81ad73c6e5eface800e3c6e36"},
	{"fairshare", 400, 80779, "13400c713a631a571e16ec6f36f884f29917c075892fff10e902673a78d2ffd5"},
}

const (
	v1SHA400  = "47b19cde5bd615093daebe5470b23daa82fb114594ea5f01bb026348eab01d2e" // v1Logs[0]
	v1SHA6000 = "483d36088e29bbe6ac3ab9bf736c5c803e557f3d5263328929f502297f8483b4" // priority, N = 6000: 1 255 929 lines
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

// expansionSHA hashes the v1 lines recs expands to, and counts them.
func expansionSHA(recs []decision.Record) (sum string, lines int, err error) {
	h := sha256.New()
	var buf []byte
	err = decisiontest.Expand(recs, func(r *decision.Record) {
		buf = append(decisiontest.AppendV1(buf[:0], *r), '\n')
		h.Write(buf)
		lines++
	})
	return hex.EncodeToString(h.Sum(nil)), lines, err
}

func TestStreamExpandsToRecordedV1Log(t *testing.T) {
	var recs []decision.Record // the priority stream's, for the mutations below
	for i, c := range v1Logs {
		got := streamDecisions(t, c.jobs, c.policy)
		sum, lines, err := expansionSHA(got)
		if err != nil {
			t.Fatalf("%s: %v", c.policy, err)
		}
		if sum != c.sha || lines != c.lines {
			t.Fatalf("%s: %d records expand to %d lines, sha256 %s; the v1 binary wrote %d lines, sha256 %s",
				c.policy, len(got), lines, sum, c.lines, c.sha)
		}
		if len(got) > lines/5 {
			t.Fatalf("%s: %d records written for %d a v1 log holds: skips are not being held", c.policy, len(got), lines)
		}
		if _, err := decisiontest.CheckFoldsAgree(got); err != nil {
			t.Fatalf("%s: %v", c.policy, err)
		}
		t.Logf("%s: %d records expand to %d lines", c.policy, len(got), lines)
		if i == 0 {
			recs = got
		}
	}

	// The oracle is only worth what it catches: each of these single-record
	// corruptions of the stream must move the hash or fail the expansion.
	// (This stream's arrivals are first skipped one to a round; swapping two
	// first skips of one round is tried on the jobs golden, whose first
	// round has four: TestDecisionGoldenExpansionCatchesMutations.)
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
		if msum, _, err := expansionSHA(m); err == nil && msum == v1SHA400 {
			t.Errorf("mutation %q goes unnoticed: same hash, no error", name)
		}
	}
}

// TestLongStreamExpandsToRecordedV1Log is the same oracle on the 6000-job
// stream (36 720 records expanding to 1 255 929 lines, 357 MB hashed): a few
// seconds, so the nightly runs it (REPRO_NIGHTLY=1), tier 1 does not.
func TestLongStreamExpandsToRecordedV1Log(t *testing.T) {
	if os.Getenv("REPRO_NIGHTLY") == "" {
		t.Skip("357 MB expansion; set REPRO_NIGHTLY=1")
	}
	recs := streamDecisions(t, 6000, "priority")
	sum, lines, err := expansionSHA(recs)
	if err != nil {
		t.Fatal(err)
	}
	if sum != v1SHA6000 || lines != 1255929 {
		t.Fatalf("%d records expand to %d lines, sha256 %s; the v1 binary wrote 1255929 lines, sha256 %s",
			len(recs), lines, sum, v1SHA6000)
	}
	t.Logf("%d records expand to %d lines", len(recs), lines)
}
