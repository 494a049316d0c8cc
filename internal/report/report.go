// Package report is the offline run-report analyzer: it reads the versioned
// JSONL artifacts a run leaves behind — the structured event log
// (repro.events.v1, with repro.decisions.v2 lines interleaved by -explain)
// and the optional round-aligned time series (repro.series.v1) — and renders
// a deterministic post-mortem: makespan attribution across the machine's
// layers, a per-tenant/per-class SLO attainment table, the top-K
// slowest-queued jobs with their decision-trace blame sentences, per-OST
// heat strips, and a machine-readable JSON summary. The report is a pure
// function of the log bytes: two byte-identical logs render byte-identical
// reports, so nightly CI can diff reports the way it diffs traces.
//
// Its fold of the event stream (Data) is the repository's one span fold:
// the same fold, attached live to a tracer, gives profile-jobs its phase
// columns and explain its waterfall.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/asciichart"
	"repro/internal/obs"
	"repro/internal/obs/decision"
)

// Data is one run's telemetry as the report folds it: the phase and
// per-submission accumulators of the event stream, the per-job span sums,
// the decision trace's wait attributions, and the series points. It holds no
// event and no decision record, so its size follows the run's jobs and
// rounds, not its log's lines. Load feeds it a recorded log; fed live, as a
// tracer's sink (New), it folds each record as it is emitted.
type Data struct {
	EventsPath string
	Series     []obs.SeriesPoint

	nEvents  int // events folded
	makespan float64
	alerts   int
	phases   Phases
	jobs     map[int]*job      // tid -> submission
	tids     []int             // first-appearance order
	spans    map[int]*JobSpans // trace pid -> span sums
	begins   map[int]openSpan  // event ID -> begin waiting for its end
	dec      decision.Fold
}

// New returns an empty Data, ready to be fed.
func New() *Data {
	return &Data{jobs: map[int]*job{}, spans: map[int]*JobSpans{}, begins: map[int]openSpan{}}
}

// Emit implements obs.EventSink.
func (d *Data) Emit(e obs.Event) { d.add(&e) }

// EmitDecision implements decision.Sink.
func (d *Data) EmitDecision(rec decision.Record) { d.dec.Add(&rec) }

// Load reads the event log at eventsPath — events and any interleaved
// decision records, in one streaming pass that folds each line into Data as
// it is read — and, when seriesPath is non-empty, the series log.
func Load(eventsPath, seriesPath string) (*Data, error) {
	f, err := os.Open(eventsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := New()
	d.EventsPath = eventsPath
	if err := obs.ScanLog(f, d.add, d.dec.Add); err != nil {
		return nil, fmt.Errorf("report: %s: %w", eventsPath, err)
	}
	if seriesPath != "" {
		sf, err := os.Open(seriesPath)
		if err != nil {
			return nil, err
		}
		defer sf.Close()
		if d.Series, err = obs.ReadSeries(sf); err != nil {
			return nil, fmt.Errorf("report: %s: %w", seriesPath, err)
		}
	}
	return d, nil
}

// Slot is one of the fixed per-job span sums, in pipeline order: the
// runtime phases profile-jobs tabulates and explain's waterfall prints.
type Slot uint8

const (
	SlotRead Slot = iota
	SlotPFS
	SlotPFSAwait
	SlotMap
	SlotShuffle
	SlotReduce
	SlotGet
	SlotMPI
	NumSlots
)

// slotSpans is the span each slot sums ("mpi." sums every mpi.* span), and
// slotLabels its label.
var (
	slotSpans  = [NumSlots]string{"adio.read", "pfs.read", "pfs.await", "cc.map", "adio.shuffle", "cc.reduce", "cc.get", "mpi."}
	slotLabels = [NumSlots]string{"read", "pfs", "pfs-await", "map", "shuffle", "reduce", "get", "mpi"}
)

// String returns the slot's label ("read", "pfs-await", "mpi", …).
func (s Slot) String() string { return slotLabels[s] }

// slotOf returns the slot a span name sums into, or NumSlots for none.
func slotOf(name string) Slot {
	if strings.HasPrefix(name, "mpi.") {
		return SlotMPI
	}
	if i := slices.Index(slotSpans[:SlotMPI], name); i >= 0 {
		return Slot(i)
	}
	return NumSlots
}

// JobSpans is one job's span sums: rank-seconds per slot over all of the
// job's ranks, and whether the slot saw any span (a zero-length or
// never-closed one counts). Complete spans are summed in log order, begun
// ones when they close.
type JobSpans struct {
	Sec  [NumSlots]float64
	Seen [NumSlots]bool
}

// Job returns the span sums of the job whose spans carry trace pid pid
// (cluster.JobResult.TracePID); zero when it recorded none.
func (d *Data) Job(pid int) JobSpans {
	if js := d.spans[pid]; js != nil {
		return *js
	}
	return JobSpans{}
}

// charge adds dur to slot s of pid's span sums and marks the slot seen; a
// span with no slot (s == NumSlots) is not summed.
func (d *Data) charge(pid int, s Slot, dur float64) {
	if s == NumSlots {
		return
	}
	js := d.spans[pid]
	if js == nil {
		js = &JobSpans{}
		d.spans[pid] = js
	}
	js.Sec[s] += dur
	js.Seen[s] = true
}

// Phases is the makespan attribution: cumulative rank-seconds spent in each
// layer of the machine, summed over all spans of that layer's categories.
// Spans from concurrent ranks overlap, so the buckets sum to attributed
// rank-time, not wall time.
type Phases struct {
	Queued  float64 `json:"queued"`  // sched "queued" spans: admission wait
	PFS     float64 `json:"pfs"`     // cat "pfs": storage service + queueing
	Fabric  float64 `json:"fabric"`  // cat "mpi": network transfer + waits
	Compute float64 `json:"compute"` // cats "cc"/"adio": map/reduce + I/O glue
}

// total returns the attributed rank-seconds across all buckets.
func (p Phases) total() float64 { return p.Queued + p.PFS + p.Fabric + p.Compute }

// TenantRow is one line of the per-tenant/per-class SLO attainment table.
type TenantRow struct {
	Tenant     string  `json:"tenant"`
	Class      string  `json:"class"`
	Jobs       int     `json:"jobs"`
	Completed  int     `json:"completed"`
	Dropped    int     `json:"dropped"`
	Misses     int     `json:"deadline_misses"`
	Attainment float64 `json:"attainment"` // (jobs - dropped - misses) / jobs
	WaitMean   float64 `json:"wait_mean_s"`
	WaitMax    float64 `json:"wait_max_s"`
}

// SlowJob is one entry of the top-K slowest-queued table: the decision
// trace's wait attribution rendered as a blame sentence.
type SlowJob struct {
	Job   string  `json:"job"`
	Wait  float64 `json:"wait_s"`
	Blame string  `json:"blame"`
}

// Summary is the machine-readable rollup embedded at the end of the text
// report. Field order is fixed by the struct, so the JSON is deterministic.
type Summary struct {
	Schema       string      `json:"schema"`
	Makespan     float64     `json:"makespan_s"`
	Jobs         int         `json:"jobs"`
	Completed    int         `json:"completed"`
	Dropped      int         `json:"dropped"`
	Misses       int         `json:"deadline_misses"`
	Phases       Phases      `json:"phases_rank_seconds"`
	Tenants      []TenantRow `json:"tenants"`
	SlowJobs     []SlowJob   `json:"slow_jobs"`
	SeriesPoints int         `json:"series_points"`
	Alerts       int         `json:"alerts"`
}

// SummarySchema versions the JSON summary's shape.
const SummarySchema = "repro.report.v1"

// Report is one analyzed run, ready to render.
type Report struct {
	Summary Summary
	series  []obs.SeriesPoint
	src     string // base name of the event log: the report's bytes do not depend on where it lay
	nEvents int
	nDecs   int
}

// job is the per-submission state folded out of the event stream.
type job struct {
	tid           int
	name          string
	tenant, class string
	wait          float64
	queued        bool
	dropped       bool
	miss          bool
}

// openSpan is a "begin" event waiting for its "end" (and, for a run span,
// for the attributes the scheduler appends after it).
type openSpan struct {
	t        float64
	cat      string
	pid, tid int
	slot     Slot
	run      bool
}

func attr(ev *obs.Event, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

func (d *Data) jobAt(tid int) *job {
	j := d.jobs[tid]
	if j == nil {
		j = &job{tid: tid}
		d.jobs[tid] = j
		d.tids = append(d.tids, tid)
	}
	return j
}

// bucket charges dur to the phase a span of this category belongs to.
func (ph *Phases) bucket(cat, name string, dur float64) {
	switch cat {
	case "sched":
		if name == "queued" {
			ph.Queued += dur
		}
	case "pfs":
		ph.PFS += dur
	case "mpi":
		ph.Fabric += dur
	case "cc", "adio":
		ph.Compute += dur
	}
}

// add folds one event in. ev is only valid during the call.
func (d *Data) add(ev *obs.Event) {
	d.nEvents++
	if t := ev.T + ev.Dur; t > d.makespan {
		d.makespan = t
	}
	switch ev.E {
	case "span":
		d.phases.bucket(ev.Cat, ev.Name, ev.Dur)
		d.charge(ev.PID, slotOf(ev.Name), ev.Dur)
		if ev.Cat == "sched" && ev.Name == "queued" {
			j := d.jobAt(ev.TID)
			j.queued = true
			j.name = attr(ev, "job")
			j.tenant = attr(ev, "tenant")
			j.class = attr(ev, "class")
			j.wait = ev.Dur
		}
	case "begin":
		b := openSpan{
			t: ev.T, cat: ev.Cat, pid: ev.PID, tid: ev.TID, slot: slotOf(ev.Name),
			run: ev.Cat == "sched" && ev.Name == "run",
		}
		d.charge(b.pid, b.slot, 0) // seen now, summed when it closes
		d.begins[ev.ID] = b
	case "end":
		// A run span stays open past its end: the scheduler appends the
		// deadline_miss attribute after closing it. There is one per job;
		// every other span is forgotten here, so the table follows the
		// spans in flight, not the log's length.
		if b, ok := d.begins[ev.ID]; ok && !b.run {
			d.phases.bucket(b.cat, "", ev.T-b.t)
			d.charge(b.pid, b.slot, ev.T-b.t)
			delete(d.begins, ev.ID)
		}
	case "attr":
		if b, ok := d.begins[ev.ID]; ok && b.run && attr(ev, "deadline_miss") != "" {
			d.jobAt(b.tid).miss = true
		}
	case "instant":
		if ev.Cat == "sched" && ev.Name == "deadline-drop" {
			d.jobAt(ev.TID).dropped = true
		}
	case "alert":
		d.alerts++
	}
}

// Build rolls the loaded run up into a report. topK bounds the slow-job
// table (0 applies the default of 5). d is only read: building twice gives
// the same report.
func Build(d *Data, topK int) *Report {
	if topK <= 0 {
		topK = 5
	}
	r := &Report{
		src: filepath.Base(d.EventsPath), nEvents: d.nEvents, nDecs: d.dec.Records(),
		series: d.Series,
	}

	// Per-(tenant, class) rollup, sorted by tenant then class. Submissions
	// with no queued span (none in practice) still count via their drop/run
	// markers, labeled "default".
	rows := map[string]*TenantRow{}
	var keys []string
	s := Summary{Schema: SummarySchema, Makespan: d.makespan, Phases: d.phases,
		SeriesPoints: len(d.Series), Alerts: d.alerts}
	for _, tid := range d.tids {
		j := d.jobs[tid]
		tn, cl := j.tenant, j.class
		if tn == "" {
			tn = "default"
		}
		if cl == "" {
			cl = "default"
		}
		key := tn + "\x00" + cl
		row := rows[key]
		if row == nil {
			row = &TenantRow{Tenant: tn, Class: cl}
			rows[key] = row
			keys = append(keys, key)
		}
		row.Jobs++
		s.Jobs++
		if j.dropped {
			row.Dropped++
			s.Dropped++
		} else {
			row.Completed++
			s.Completed++
		}
		if j.miss {
			row.Misses++
			s.Misses++
		}
		if j.wait > row.WaitMax {
			row.WaitMax = j.wait
		}
		row.WaitMean += j.wait // sum for now; divided below
	}
	sort.Strings(keys)
	for _, key := range keys {
		row := rows[key]
		row.WaitMean /= float64(row.Jobs)
		met := row.Jobs - row.Dropped - row.Misses
		if met < 0 {
			met = 0
		}
		row.Attainment = float64(met) / float64(row.Jobs)
		s.Tenants = append(s.Tenants, *row)
	}

	// Slow-job table from the decision trace (empty without -explain).
	blames := d.dec.Jobs()
	sort.SliceStable(blames, func(i, k int) bool {
		if blames[i].Wait != blames[k].Wait {
			return blames[i].Wait > blames[k].Wait
		}
		return blames[i].Seq < blames[k].Seq
	})
	for i, ja := range blames {
		if i >= topK {
			break
		}
		s.SlowJobs = append(s.SlowJobs, SlowJob{
			Job: ja.Job, Wait: ja.Wait, Blame: ja.String(),
		})
	}
	r.Summary = s
	return r
}

// pct renders a share of total as a fixed-width percentage.
func pct(part, total float64) string {
	if total <= 0 {
		return "   - "
	}
	return fmt.Sprintf("%4.1f%%", 100*part/total)
}

// WriteText renders the full human-readable report, ending with the JSON
// summary block, so one artifact serves both readers and machines.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	s := r.Summary
	fmt.Fprintf(&b, "== run report: %s ==\n", r.src)
	fmt.Fprintf(&b, "events: %d   decisions: %d   series points: %d   alerts: %d\n",
		r.nEvents, r.nDecs, s.SeriesPoints, s.Alerts)
	fmt.Fprintf(&b, "\n-- makespan attribution --\n")
	fmt.Fprintf(&b, "makespan %.4f s   jobs %d (%d completed, %d dropped, %d deadline misses)\n",
		s.Makespan, s.Jobs, s.Completed, s.Dropped, s.Misses)
	tot := s.Phases.total()
	fmt.Fprintf(&b, "phase            rank-seconds   share\n")
	fmt.Fprintf(&b, "queued (sched)   %12.4f   %s\n", s.Phases.Queued, pct(s.Phases.Queued, tot))
	fmt.Fprintf(&b, "pfs              %12.4f   %s\n", s.Phases.PFS, pct(s.Phases.PFS, tot))
	fmt.Fprintf(&b, "fabric (mpi)     %12.4f   %s\n", s.Phases.Fabric, pct(s.Phases.Fabric, tot))
	fmt.Fprintf(&b, "compute (cc+adio)%12.4f   %s\n", s.Phases.Compute, pct(s.Phases.Compute, tot))

	// The text table shows the busiest rows (most jobs, then worst outcomes)
	// so huge multi-tenant runs stay readable; the JSON summary keeps every
	// row in tenant/class order.
	const tenantRowCap = 20
	shown := make([]TenantRow, len(s.Tenants))
	copy(shown, s.Tenants)
	sort.SliceStable(shown, func(i, k int) bool {
		a, c := shown[i], shown[k]
		if a.Jobs != c.Jobs {
			return a.Jobs > c.Jobs
		}
		if am, cm := a.Dropped+a.Misses, c.Dropped+c.Misses; am != cm {
			return am > cm
		}
		if a.Tenant != c.Tenant {
			return a.Tenant < c.Tenant
		}
		return a.Class < c.Class
	})
	hidden := 0
	if len(shown) > tenantRowCap {
		hidden = len(shown) - tenantRowCap
		shown = shown[:tenantRowCap]
	}
	tw, cw := len("tenant"), len("class")
	for _, row := range shown {
		if len(row.Tenant) > tw {
			tw = len(row.Tenant)
		}
		if len(row.Class) > cw {
			cw = len(row.Class)
		}
	}
	fmt.Fprintf(&b, "\n-- tenants --\n")
	fmt.Fprintf(&b, "%-*s %-*s %5s %5s %5s %5s %8s %10s %10s\n",
		tw, "tenant", cw, "class", "jobs", "done", "drop", "miss", "attain", "wait-mean", "wait-max")
	for _, row := range shown {
		fmt.Fprintf(&b, "%-*s %-*s %5d %5d %5d %5d %7.1f%% %10.4f %10.4f\n",
			tw, row.Tenant, cw, row.Class, row.Jobs, row.Completed, row.Dropped,
			row.Misses, 100*row.Attainment, row.WaitMean, row.WaitMax)
	}
	if hidden > 0 {
		fmt.Fprintf(&b, "(... %d more tenant/class rows in the JSON summary)\n", hidden)
	}
	if len(s.Tenants) == 0 {
		fmt.Fprintf(&b, "(no scheduled jobs in log)\n")
	}

	if len(s.SlowJobs) > 0 {
		fmt.Fprintf(&b, "\n-- top %d slowest-queued jobs (decision trace) --\n", len(s.SlowJobs))
		for i, sj := range s.SlowJobs {
			fmt.Fprintf(&b, "%2d. %s\n", i+1, sj.Blame)
		}
	} else if r.nDecs == 0 {
		fmt.Fprintf(&b, "\n(no decision records in log; record with -explain for wait blame)\n")
	}

	if len(r.series) > 0 {
		depth := make([]float64, len(r.series))
		busy := make([]float64, len(r.series))
		for i, p := range r.series {
			depth[i] = float64(p.QueueDepth)
			busy[i] = float64(p.RanksBusy)
		}
		last := r.series[len(r.series)-1]
		fmt.Fprintf(&b, "\n-- series (%d points, rounds %d..%d) --\n",
			len(r.series), r.series[0].Round, last.Round)
		fmt.Fprintf(&b, "queue depth %s\n", asciichart.Spark(depth, 48))
		fmt.Fprintf(&b, "ranks busy  %s\n", asciichart.Spark(busy, 48))
		if len(last.OSTBusy) > 0 {
			fmt.Fprintf(&b, "ost busy    %s  (final, %d OSTs)\n",
				asciichart.Heat(last.OSTBusy, 48), len(last.OSTBusy))
		}
		for _, cw := range last.Classes {
			fmt.Fprintf(&b, "class %-12s window n=%d p50=%.4fs p99=%.4fs\n",
				cw.Class, cw.N, cw.P50, cw.P99)
		}
	}

	js, err := json.MarshalIndent(&s, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "\n-- summary (json) --\n%s\n", js)
	_, err = io.WriteString(w, b.String())
	return err
}

// Run is the one-call pipeline: load, build, render to w.
func Run(w io.Writer, eventsPath, seriesPath string, topK int) error {
	d, err := Load(eventsPath, seriesPath)
	if err != nil {
		return err
	}
	return Build(d, topK).WriteText(w)
}
