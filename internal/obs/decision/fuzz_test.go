package decision_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsonl"
	"repro/internal/obs/decision"
)

// wireRecord is the reflection reader's decode shape: what ReadLog
// unmarshalled every line into before the hand-written scanner, plus the two
// keys v2 added. It is kept as the scanner's oracle.
type wireRecord struct {
	E            string  `json:"e"`
	V            string  `json:"v"`
	Round        int     `json:"round"`
	T            float64 `json:"t"`
	Policy       string  `json:"policy"`
	Job          string  `json:"job"`
	Seq          int     `json:"seq"`
	Outcome      string  `json:"outcome"`
	Reason       string  `json:"reason"`
	BlockedBy    string  `json:"blocked_by"`
	BlockedBySeq int     `json:"blocked_seq"`
	Width        int     `json:"width"`
	Wait         float64 `json:"wait"`
	Submit       float64 `json:"submit"`
	Free         int     `json:"free"`
	FreeRanks    string  `json:"free_ranks"`
	Ranks        string  `json:"ranks"`
	Shadow       float64 `json:"shadow"`
	Pending      int     `json:"pending"`
}

// decodeLine reads one decision line into r, as ReadLog reads each line.
func decodeLine(line []byte, r *decision.Record) error {
	var d jsonl.Dec
	d.Reset(line)
	return decision.Decode(&d, r)
}

// oracleDecode reads one canonical decision line through encoding/json.
func oracleDecode(line []byte) (decision.Record, error) {
	w := wireRecord{BlockedBySeq: -1}
	if err := json.Unmarshal(line, &w); err != nil {
		return decision.Record{}, err
	}
	if w.BlockedBy == "" {
		w.BlockedBySeq = -1
	}
	rec := decision.Record{Round: w.Round, T: w.T, Policy: w.Policy, Job: w.Job, Seq: w.Seq,
		Outcome: decision.Outcome(w.Outcome), Reason: decision.Reason(w.Reason),
		BlockedBy: w.BlockedBy, BlockedBySeq: w.BlockedBySeq, Width: w.Width, Wait: w.Wait,
		Submit: w.Submit, Free: w.Free, FreeRanks: w.FreeRanks, Ranks: w.Ranks, Shadow: w.Shadow,
		Pending: w.Pending}
	if rec.Outcome == decision.Skip {
		rec.Wait = rec.T - rec.Submit // not on a skip line: derived
	}
	return rec, nil
}

// goldenLines returns the lines of the committed decision goldens, the quick
// and the paper-scale run's (the experiments package owns the files).
func goldenLines(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, name := range []string{"jobs_fifo_decisions.golden.jsonl", "jobs_fifo_decisions_scale1.golden.jsonl"} {
		f, err := os.Open(filepath.Join("..", "..", "experiments", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			out = append(out, bytes.Clone(sc.Bytes()))
		}
		f.Close()
		if sc.Err() != nil || len(out) == 0 {
			t.Fatalf("%s: %v, %d lines", name, sc.Err(), len(out))
		}
	}
	return out
}

// checkDecisionLine is the reader contract on one line: never panic; an
// accepted line re-encodes to a canonical line that
// decodes to the same record; a line a writer of this repo emits — one that
// is its own canonical form — reads to what the reflection reader returns;
// and what encoding/json cannot parse is an error.
func checkDecisionLine(t *testing.T, line []byte) {
	var rec decision.Record
	err := decodeLine(line, &rec)
	if err != nil {
		if recs, rerr := decision.ReadLog(bytes.NewReader(line)); decision.IsLine(line) && !bytes.Contains(line, []byte("\n")) &&
			(rerr == nil || !strings.Contains(rerr.Error(), "line 1") || recs != nil) {
			t.Fatalf("ReadLog on a rejected decision line: %v, %v", recs, rerr)
		}
		return
	}
	if !json.Valid(line) {
		t.Fatalf("accepted a line encoding/json rejects: %q", line)
	}
	want, oerr := oracleDecode(line)
	canon := decision.AppendJSON(nil, rec)
	var again decision.Record
	if err := decodeLine(canon, &again); err != nil || again != rec {
		t.Fatalf("canonical form does not read back:\n line  %s\n canon %s\n first %+v\n again %+v (%v)", line, canon, rec, again, err)
	}
	if bytes.Equal(canon, line) && (oerr != nil || !reflect.DeepEqual(rec, want)) {
		t.Fatalf("canonical line %s:\n scanner %+v\n oracle  %+v (%v)", line, rec, want, oerr)
	}
}

// TestGoldenLinesMatchOracle runs the contract over every committed decision
// line, and requires each to be canonical (so the oracle comparison is not
// vacuous).
func TestGoldenLinesMatchOracle(t *testing.T) {
	for _, line := range goldenLines(t) {
		checkDecisionLine(t, line)
		var rec decision.Record
		if err := decodeLine(line, &rec); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if canon := decision.AppendJSON(nil, rec); !bytes.Equal(canon, line) {
			t.Fatalf("golden line is not canonical:\n line  %s\n canon %s", line, canon)
		}
	}
}

func FuzzDecisionLine(f *testing.F) {
	for i, line := range goldenLines(f) {
		if i%3 == 0 {
			f.Add(line)
		}
	}
	f.Add([]byte(`{"v":"repro.decisions.v2","e":"decision","outcome":"skip","submit":1e-3,"t":2,"unknown":{"a":[1,"😀"]}}`))
	f.Add([]byte(`{"e":"decision","v":"repro.decisions.v2","round":1,"t":0,"policy":"p\u003c","job":"a\"b","seq":0,"outcome":"admit","reason":"backfill","width":1,"wait":0,"free":1,"free_ranks":"0","shadow":-0.5}`))
	f.Fuzz(checkDecisionLine)
}
