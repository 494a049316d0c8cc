package experiments

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// liveRules is an -slo rule set over the quick jobs machine in which exactly
// one rule fires: the stock rules hold, jobs-done fires when the fifth job
// completes, and absent names a histogram nothing records, so it stays n/a.
func liveRules() []obs.SLORule {
	return append(obs.DefaultSLORules(),
		obs.MustParseSLORule("jobs-done=cluster_jobs_completed<5"),
		obs.MustParseSLORule("absent=p50(no_such_seconds)<1"))
}

// jobsLivePlane runs the jobs experiment (quick config, memo on) with the
// live plane attached as `ccexp -quick -memo jobs -serve ADDR -dash -slo ...`
// attaches it, and renders what that plane shows once the run is over: the
// final dashboard frame, the /healthz and /jobs bodies, and the violation
// lines the CLI prints to stderr.
func jobsLivePlane(t *testing.T) []byte {
	t.Helper()
	ot := obs.New()
	ot.EnableDecisions() // -serve records decisions for /decisions
	slo := obs.NewSLO(liveRules()...)
	ot.SetSLO(slo)
	live := obs.NewLive()
	ot.SetLive(live)
	cfg := quick
	cfg.Obs, cfg.Memo = ot, true
	if _, err := Jobs(cfg); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "== dashboard\n%s", obs.RenderDashboard(live))
	h := obs.TelemetryHandler(live)
	for _, path := range []string{"/healthz", "/jobs"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		fmt.Fprintf(&b, "== %s\n%s", path, rec.Body)
	}
	b.WriteString("== slo violations\n")
	for _, v := range slo.Violations() {
		fmt.Fprintf(&b, "(%s)\n", v)
	}
	return b.Bytes()
}

// TestJobsLivePlaneGolden pins the live telemetry plane byte for byte on the
// quick jobs machine with the memo layer on: frames are published at
// deterministic virtual-clock points, so the last one — and everything
// rendered from it — is a pure function of the run. Regenerate with UPDATE_SCHED_GOLDEN=1 go test
// ./internal/experiments -run LivePlaneGolden only for an intentional change
// to the dashboard, the endpoints or the SLO engine.
func TestJobsLivePlaneGolden(t *testing.T) {
	golden := filepath.Join("testdata", "jobs_live.golden.txt")
	got := jobsLivePlane(t)
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
		firstLineDiff(t, "live plane", got, want)
	}
}
