package adio

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// readCase is one read scenario as plain data, so that the same scenario can
// be run on any number of fresh machines: the ranks and their requests, the
// protocol knobs, and (optionally) the fault regime to generate a plan from.
type readCase struct {
	n, rpn     int
	fileSize   int64
	stripeSize int64
	perRank    [][]layout.Run
	aggrs      []int
	p          Params
	faults     *fault.Spec // NumNodes is filled in from the machine
}

// sieveWithHoles is an independent-read sieve threshold that the random runs
// (gaps of up to a few hundred bytes) straddle: some gaps are read through,
// some split the request into separate covering reads.
const sieveWithHoles = 96

// readOutcome is everything a read exposes: the bytes delivered, and what it
// cost — the event log of an attached obs.Tracer (every adio and pfs span with
// its attributes), where each rank's time went (obs.RankTime: the per-(rank,
// kind) totals, and the CPU profile at a bucket a tenth of one OST request's
// latency, so an interval that moves in time shows even when no total does),
// the makespan, and the file-system, OST and fabric counters.
type readOutcome struct {
	bufs     [][]byte
	events   []byte
	rankTime [][obs.NumKinds]float64
	profile  []obs.CPUSample
	makespan float64
	fs       [4]int64
	ostBusy  []float64
	net      [4]int64
}

// run executes the scenario on a fresh machine with a span tracer and a
// profiled RankTime attached: as one collective read under rc.p, or as independent per-rank sieved reads.
func (rc *readCase) run(independent, chargeOnly bool) (*readOutcome, error) {
	env := sim.NewEnv()
	w := mpi.NewWorld(env, rc.n, fabric.Params{RanksPerNode: rc.rpn})
	fs := pfs.New(env, pfs.Params{NumOSTs: 8, DefaultStripeSize: rc.stripeSize})
	f := fs.Create("data", pfs.NewSynthBackend(rc.fileSize, pattern), 8, rc.stripeSize, 0)
	if rc.faults != nil {
		spec := *rc.faults
		spec.NumNodes = w.Net().Nodes()
		fault.Gen(spec).Apply(w, fs)
	}
	var log bytes.Buffer
	ot := obs.New()
	sink := obs.NewJSONLSink(&log)
	ot.AddSink(sink)
	rt := obs.NewRankTime(rc.n)
	rt.Profile(fs.Params().OSTLatency / 10)
	w.SetRankTime(rt)
	w.SetObs(ot)
	fs.SetObs(ot)
	comm := w.Comm()

	out := &readOutcome{bufs: make([][]byte, rc.n)}
	errs := make([]error, rc.n)
	w.Go(func(r *mpi.Rank) {
		me := r.Rank()
		rq := Request{Runs: rc.perRank[me], ChargeOnly: chargeOnly}
		if !chargeOnly {
			rq.Buf = make([]byte, layout.TotalLength(rq.Runs))
		}
		cl := fs.Client(r.Proc(), me, rt)
		if independent {
			cl.SetReadPolicy(pfs.ReadPolicy{Timeout: rc.p.ReadTimeout, Retries: rc.p.ReadRetries, Backoff: rc.p.ReadBackoff})
			errs[me] = IndependentRead(cl, f, rq, Params{SieveThreshold: sieveWithHoles})
		} else {
			errs[me] = CollectiveRead(r, comm, cl, f, rq, rc.aggrs, rc.p)
		}
		out.bufs[me] = rq.Buf
	})
	if err := env.Run(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", i, err)
		}
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	out.events = log.Bytes()
	out.makespan = env.Now()
	out.rankTime = make([][obs.NumKinds]float64, rc.n)
	for rank := range out.rankTime {
		for k := range out.rankTime[rank] {
			out.rankTime[rank][k] = rt.RankTotal(rank, obs.Kind(k))
		}
	}
	out.profile = rt.CPUProfile(out.makespan)
	out.fs = [4]int64{fs.BytesRead, fs.Requests, fs.Timeouts, fs.Retries}
	out.ostBusy = fs.OSTBusyTimes()
	net := w.Net()
	out.net = [4]int64{net.Messages, net.BytesOnWire, net.InterMessages, net.DegradedMessages}
	return out, nil
}

// costDiff names the first respect in which two reads cost differently, or "".
func (a *readOutcome) costDiff(b *readOutcome) string {
	switch {
	case math.Float64bits(a.makespan) != math.Float64bits(b.makespan):
		return fmt.Sprintf("makespan %v != %v", a.makespan, b.makespan)
	case a.fs != b.fs:
		return fmt.Sprintf("fs bytes/requests/timeouts/retries %v != %v", a.fs, b.fs)
	case a.net != b.net:
		return fmt.Sprintf("fabric messages/wire bytes/inter-node/degraded %v != %v", a.net, b.net)
	case !reflect.DeepEqual(a.ostBusy, b.ostBusy):
		return fmt.Sprintf("OST busy times %v != %v", a.ostBusy, b.ostBusy)
	}
	for rank := range a.rankTime {
		if a.rankTime[rank] != b.rankTime[rank] {
			return fmt.Sprintf("rank %d user/sys/wait-io/wait-comm seconds %v != %v", rank, a.rankTime[rank], b.rankTime[rank])
		}
	}
	for i := range a.profile {
		if a.profile[i] != b.profile[i] {
			return fmt.Sprintf("CPU profile differs in bucket %d of %d: %+v != %+v", i, len(a.profile), a.profile[i], b.profile[i])
		}
	}
	if !bytes.Equal(a.events, b.events) {
		la, lb := bytes.Split(a.events, []byte("\n")), bytes.Split(b.events, []byte("\n"))
		for i := range la {
			if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
				return fmt.Sprintf("event log differs at line %d: %s", i+1, la[i])
			}
		}
		return fmt.Sprintf("event log: %d lines vs %d", len(la), len(lb))
	}
	return ""
}

// TestChargeOnlyReadMatchesMaterialised: a charge-only read is the
// materialising read minus the bytes. Over the random plans of
// TestCollectiveReadPropertyRandom and the fault schedules of
// TestCollectiveReadFaultProperty, each scenario is run blocking, pipelined
// and as independent sieved reads, once with buffers (which must come back
// right) and once charge-only, and the two must agree on every cost the run
// exposes, to the byte of the event log. It fails if a charge moves into a
// branch only the materialising read takes — the receive-side or local
// per-piece Sys, a message that loses its piece count or size, a read that is
// not charged.
func TestChargeOnlyReadMatchesMaterialised(t *testing.T) {
	var sawTimeout, sawSieveHole, sawSieveJoin bool
	check := func(name string, rc *readCase) bool {
		ok := true
		for _, v := range []struct {
			what                  string
			independent, pipeline bool
		}{{"blocking", false, false}, {"pipelined", false, true}, {"independent", true, false}} {
			c := *rc
			c.p.Pipeline = v.pipeline
			full, err := c.run(v.independent, false)
			if err != nil {
				t.Errorf("%s/%s: %v", name, v.what, err)
				return false
			}
			for i, b := range full.bufs {
				if !bytes.Equal(b, wantBuf(c.perRank[i])) {
					t.Errorf("%s/%s: rank %d read wrong bytes", name, v.what, i)
					ok = false
				}
			}
			charged, err := c.run(v.independent, true)
			if err != nil {
				t.Errorf("%s/%s charge-only: %v", name, v.what, err)
				return false
			}
			if d := full.costDiff(charged); d != "" {
				t.Errorf("%s/%s: materialised vs charge-only: %s", name, v.what, d)
				ok = false
			}
			sawTimeout = sawTimeout || full.fs[2] > 0
			if v.independent {
				for _, runs := range c.perRank {
					segs := sieveSegments(runs, sieveWithHoles)
					sawSieveHole = sawSieveHole || len(segs) > 1
					sawSieveJoin = sawSieveJoin || len(segs) < len(runs)
				}
			}
		}
		return ok
	}
	for i, rc := range propertyRandomCases() {
		check(fmt.Sprintf("random plan %d", i), rc)
	}
	prop := func(seed int64) bool { return check(fmt.Sprintf("fault seed %d", seed), faultReadCase(seed)) }
	if err := quick.Check(prop, faultSeeds()); err != nil {
		t.Error(err)
	}
	if !sawTimeout || !sawSieveHole || !sawSieveJoin {
		t.Errorf("scenarios too tame: timeouts %v, sieve left holes %v, sieve joined runs %v",
			sawTimeout, sawSieveHole, sawSieveJoin)
	}
}

// TestChargeOnlyRequestValidation: a charge-only request carries no buffer,
// and only reads take one.
func TestChargeOnlyRequestValidation(t *testing.T) {
	runs := []layout.Run{{Offset: 0, Length: 4}}
	if err := (Request{Runs: runs, ChargeOnly: true}).Validate(); err != nil {
		t.Errorf("charge-only request without a buffer: %v", err)
	}
	if (Request{Runs: runs, Buf: make([]byte, 4), ChargeOnly: true}).Validate() == nil {
		t.Error("charge-only request with a buffer validated")
	}
	if (Request{Runs: []layout.Run{{Offset: 4, Length: 4}, {Offset: 0, Length: 4}}, ChargeOnly: true}).Validate() == nil {
		t.Error("charge-only request with unsorted runs validated")
	}
	wd := newWorld(1, 1024, 256)
	wd.w.Go(func(r *mpi.Rank) {
		cl := wd.fs.Client(r.Proc(), 0, nil)
		rq := Request{Runs: runs, ChargeOnly: true}
		if CollectiveWrite(r, wd.c, cl, wd.f, rq, nil, Params{}) == nil {
			t.Error("charge-only collective write accepted")
		}
	})
	if err := wd.env.Run(); err != nil {
		t.Fatal(err)
	}
}
