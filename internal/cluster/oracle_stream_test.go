package cluster_test

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/obs/decision/decisiontest"
	"repro/internal/workload"
)

// The deep half of the differential oracle tests (see oracle_test.go): job
// streams from workload.Generate at 40x the rate the machine serves, so the
// pending queue grows hundreds deep — what the 6-to-16-job harness mixes
// cannot reach. It lives in the external test package because
// internal/workload imports cluster.

// streamVariant shapes one generated stream and the cluster it runs on.
type streamVariant struct {
	name string
	// clients overrides every cohort's population: 0 keeps the default
	// (hundreds of thousands, so nearly every job is its own tenant and
	// tenants tie at equal usage); a handful gives each tenant a deep
	// backlog of its own.
	clients int
	// shuffle submits the trace in a seeded permutation of its arrival
	// order: Seq follows submission order, arrival follows SubmitAt time, so
	// a tenant's arrival order is no longer its Seq order.
	shuffle bool
}

// eventsOnly hides the JSONL sink's decision half: the stream tests keep the
// event log as bytes and compare the decision records as values
// (decision.AppendJSON is a pure function of a Record, so equal records are
// byte-identical lines; the interleaving of the two streams is pinned by the
// harness-mix test's mixed logs).
type eventsOnly struct{ obs.EventSink }

// streamLog is what one run recorded.
type streamLog struct {
	events    []byte
	decisions []decision.Record
	dropped   int
	memo      cluster.MemoStats
	tenants   int
}

// runStream runs one variant under the policy — indexed, or its linear-scan
// oracle — with the event log and decision tracing on.
func runStream(t *testing.T, policy string, v streamVariant, oracle bool) streamLog {
	t.Helper()
	const jobs = 520
	spec := workload.DefaultSpec(7, 40, float64(jobs)/(20*40)*1.3, jobs, policy)
	for i := range spec.Cohorts {
		co := &spec.Cohorts[i]
		if v.clients > 0 {
			co.Clients = v.clients
		}
		// The default deadlines (5-60 s) outlast a 500-job backlog under every
		// policy; a tenth of them expires a share of it in the queue.
		co.DeadlineLo, co.DeadlineHi = co.DeadlineLo/10, co.DeadlineHi/10
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) < 500 {
		t.Fatalf("stream has %d jobs, want >= 500", len(tr.Jobs))
	}
	// The low-priority batch cohort carries no deadlines, so under priority
	// nothing of it would ever expire. Every other deadline-free job gets a
	// 1-5 s one; the rest stay deadline-free and tie on (priority, deadline),
	// which leaves the Seq tie-break to order them.
	for i := range tr.Jobs {
		if j := &tr.Jobs[i]; j.Deadline == 0 && i%2 == 0 {
			j.Deadline = float64(1 + i%5)
		}
	}
	if v.shuffle {
		// A fixed permutation: order by a multiplicative hash of the index.
		key := func(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }
		idx := make([]int, len(tr.Jobs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
		shuffled := make([]workload.Submission, len(tr.Jobs))
		for i, j := range idx {
			shuffled[i] = tr.Jobs[j]
		}
		tr.Jobs = shuffled
	}

	var buf bytes.Buffer
	ot := obs.New()
	sink := obs.NewJSONLSink(&buf)
	ot.AddSink(eventsOnly{sink})
	ot.EnableDecisions()
	c, err := workload.Provision(tr, ot)
	if err != nil {
		t.Fatal(err)
	}
	if oracle {
		cluster.InstallOracle(c)
	}
	seen := map[string]bool{}
	for i := range tr.Jobs {
		seen[tr.Jobs[i].Tenant] = true
	}
	subs, err := workload.SubmitAll(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out := streamLog{events: buf.Bytes(), decisions: ot.Decisions(),
		memo: c.MemoStats(), tenants: len(seen)}
	for _, cs := range workload.Summarize(subs) {
		out.dropped += cs.Dropped
	}
	return out
}

// TestIndexedPoliciesMatchOracleOnDeepStreams: on >= 500-job backlogs with
// the memo layer sweeping jobs out from under the policy, deadlines expiring
// in the queue, a few tenants at unequal usage, equal-usage tenant ties and
// out-of-order SubmitAt, the indexed policies' event and decision logs are
// byte-identical to their oracles'.
func TestIndexedPoliciesMatchOracleOnDeepStreams(t *testing.T) {
	variants := []streamVariant{
		{name: "many-tenants"},
		{name: "many-tenants-shuffled", shuffle: true},
		{name: "few-tenants", clients: 3},
		{name: "few-tenants-shuffled", clients: 3, shuffle: true},
	}
	if testing.Short() {
		variants = variants[2:]
	}
	for _, pol := range []string{"priority", "fairshare"} {
		for _, v := range variants {
			if pol == "priority" && v.clients > 0 {
				continue // priority never looks at the tenant
			}
			t.Run(pol+"/"+v.name, func(t *testing.T) {
				indexed := runStream(t, pol, v, false)
				oracle := runStream(t, pol, v, true)
				t.Logf("tenants=%d dropped=%d memo=%+v decisions=%d event bytes=%d", indexed.tenants,
					indexed.dropped, indexed.memo, len(indexed.decisions), len(indexed.events))
				if !bytes.Equal(indexed.events, oracle.events) {
					t.Fatalf("event logs differ:\n%s", cluster.FirstLogDiff(indexed.events, oracle.events))
				}
				if len(indexed.decisions) != len(oracle.decisions) {
					t.Fatalf("%d decision records, oracle has %d", len(indexed.decisions), len(oracle.decisions))
				}
				for i, rec := range indexed.decisions {
					if rec != oracle.decisions[i] {
						t.Fatalf("decision %d differs:\n  indexed: %s\n  oracle:  %s", i,
							decision.AppendJSON(nil, rec), decision.AppendJSON(nil, oracle.decisions[i]))
					}
				}
				// Held skips on a deep backlog: the stream expands to a
				// self-consistent v1 stream (every round's pending count is
				// the number of skips in force) and attributes to the same
				// bits either way.
				v1, err := decisiontest.CheckFoldsAgree(indexed.decisions)
				if err != nil {
					t.Fatal(err)
				}
				// The comparison is only worth what the stream exercises. How
				// deep the backlog ran is what the stream expands to — a record
				// per pending job per round, the count a v1 log had — and that
				// must be at least 1 % of the event log's bytes (it is 10-18 %
				// on these streams); the records actually written must be a
				// small fraction of it (6-7 % here), or skips are not held.
				ms := indexed.memo
				if indexed.dropped == 0 || ms.Hits+ms.Waiters == 0 || ms.Coalesced == 0 ||
					len(v1) < 10*len(indexed.events)/1000 || len(indexed.decisions) > len(v1)/5 {
					t.Errorf("stream too tame: dropped=%d memo=%+v decisions=%d expanding to %d, %d event bytes",
						indexed.dropped, ms, len(indexed.decisions), len(v1), len(indexed.events))
				}
			})
		}
	}
}

// TestStreamLogsIdenticalAcrossHostParallelism: simulated processes switch
// as coroutines, so the host scheduler orders nothing and a deep stream's
// event and decision logs are the same bytes at GOMAXPROCS 1, 2 and 8.
func TestStreamLogsIdenticalAcrossHostParallelism(t *testing.T) {
	v := streamVariant{name: "few-tenants", clients: 3}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want streamLog
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := runStream(t, "fairshare", v, false)
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got.events, want.events) {
			t.Fatalf("GOMAXPROCS=%d event log differs from GOMAXPROCS=1:\n%s", procs,
				cluster.FirstLogDiff(got.events, want.events))
		}
		if !slices.Equal(got.decisions, want.decisions) { // equal records are equal lines (see eventsOnly)
			t.Fatalf("GOMAXPROCS=%d decision records differ from GOMAXPROCS=1", procs)
		}
	}
	if len(want.events) == 0 || len(want.decisions) == 0 {
		t.Fatalf("nothing recorded: %d event bytes, %d decisions", len(want.events), len(want.decisions))
	}
}
