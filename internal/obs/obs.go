// Package obs is the structured observability layer of the runtime: a
// virtual-clock span tracer plus a typed metrics registry that every layer
// (cluster, cc, adio, pfs, mpi) emits into. Spans nest scheduler → job → cc
// phase → adio iteration → pfs request / mpi message and carry string
// attributes; the whole store exports deterministically to Chrome
// trace-event JSON (loadable in Perfetto) and to a stable text metrics dump.
//
// Everything is driven by the deterministic simulation clock, so the same
// program produces byte-identical exports on every run.
//
// A nil *Tracer is a valid, disabled tracer: every method no-ops. Hot paths
// must still guard attribute-carrying calls with `if tr != nil` — building
// the variadic attribute slice allocates even when the receiver is nil.
// Simulation runs ranks one goroutine at a time, so no locking is needed.
package obs

import (
	"strconv"

	"repro/internal/obs/decision"
)

// Attr is one span attribute. Values are pre-rendered strings so a span's
// attribute order (and therefore its JSON) is deterministic.
type Attr struct {
	Key, Val string
}

// S builds a string attribute.
func S(key, val string) Attr { return Attr{Key: key, Val: val} }

// I builds an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Val: strconv.FormatInt(v, 10)} }

// F builds a float attribute with full-precision deterministic formatting.
func F(key string, v float64) Attr {
	return Attr{Key: key, Val: strconv.FormatFloat(v, 'g', -1, 64)}
}

// SpanID identifies an open span returned by Begin/BeginRank. The zero
// SpanID is invalid; End(0, t) is a no-op, so disabled-path code can carry a
// zero id without branching.
type SpanID int

type span struct {
	name, cat  string
	pid, tid   int
	start, end float64 // end < start marks a still-open span
	attrs      []Attr
}

// SpanView is a read-only view of one recorded span, for analysis passes
// (e.g. the profile-jobs per-phase breakdown).
type SpanView struct {
	Name, Cat  string
	PID, TID   int
	Start, End float64
	Attrs      []Attr
}

type counterSample struct {
	name    string
	ts, val float64
}

type threadKey struct{ pid, tid int }

// Tracer is the span store. Create with New; share one instance across the
// whole run (the cluster binds world ranks to job pids as jobs are admitted,
// so rank-routed spans land in the right Perfetto process).
type Tracer struct {
	reg     *Registry
	spans   []span
	nSpans  int  // spans recorded (== len(spans) while they are kept)
	keep    bool // a reader will walk spans and samples after the run (KeepSpans)
	procs   map[int]string
	threads map[threadKey]string
	samples []counterSample
	curPID  []int // world rank -> bound pid (0 = cluster/unbound)

	// Telemetry plane (all optional; see events.go, live.go, slo.go). The
	// sink mirrors spans/instants/counter samples as they are recorded; the
	// live cell and SLO engine are driven by the cluster at scheduler round
	// boundaries.
	sink   EventSink
	live   *Live
	slo    *SLO
	series *SeriesSink

	// Decision tracing (see internal/obs/decision): opt-in, because decision
	// records land in the event log and default-off keeps existing golden
	// event logs byte-stable.
	decOn     bool
	decisions []decision.Record
}

// New returns an empty, enabled tracer with a fresh metrics registry. It
// keeps what it records (see KeepSpans).
func New() *Tracer {
	return &Tracer{
		reg:     NewRegistry(),
		keep:    true,
		procs:   make(map[int]string),
		threads: make(map[threadKey]string),
	}
}

// SetSink installs an event sink: from now on every span begin/end, complete
// span, instant, counter sample, and SLO alert recorded through the tracer
// is mirrored into sink in emission order (see events.go). Nil removes it.
func (t *Tracer) SetSink(sink EventSink) {
	if t == nil {
		return
	}
	t.sink = sink
}

// KeepSpans says whether anything will read spans and counter samples back
// from memory after the run. Every record is mirrored into the event sink
// either way, span ids count up either way, so the event log's bytes do not
// depend on it; what it decides is whether the tracer also holds a copy —
// memory that grows with the run — for EachSpan and WriteChromeTrace.
//
// Retention follows the reader, not a user's flag: a fresh tracer keeps
// (tests and probes read it directly), obscli.Flags.Attach turns keeping off
// unless -trace will export the spans, and an experiment that folds spans
// (explain's waterfall, profile-jobs) turns it on for the tracer it folds.
// Without it EachSpan visits nothing and the Chrome trace is empty. Decision
// records are not spans: they are kept whenever decision tracing is on. The
// metrics registry aggregates in place and is always available.
//
// Decide before recording: a span's id is its index in the store, so
// keeping cannot start once spans have gone by unkept.
func (t *Tracer) KeepSpans(on bool) {
	if t == nil {
		return
	}
	if on && t.nSpans != len(t.spans) {
		panic("obs: KeepSpans(true) after spans were recorded unkept")
	}
	t.keep = on
}

// SetLive installs the live frame cell the owning runtime publishes
// telemetry snapshots into (see live.go).
func (t *Tracer) SetLive(l *Live) {
	if t == nil {
		return
	}
	t.live = l
}

// Live returns the installed live cell (nil on a nil tracer or when live
// telemetry is disabled).
func (t *Tracer) Live() *Live {
	if t == nil {
		return nil
	}
	return t.live
}

// SetSeries installs the time-series sink the owning runtime samples one
// SeriesPoint into per scheduler round (see series.go). The sink streams
// and retains nothing.
func (t *Tracer) SetSeries(s *SeriesSink) {
	if t == nil {
		return
	}
	t.series = s
}

// Series returns the installed series sink (nil when disabled).
func (t *Tracer) Series() *SeriesSink {
	if t == nil {
		return nil
	}
	return t.series
}

// SetSLO installs the SLO rule engine the owning runtime evaluates at
// telemetry publish points (see slo.go).
func (t *Tracer) SetSLO(s *SLO) {
	if t == nil {
		return
	}
	t.slo = s
}

// SLOEngine returns the installed SLO engine (nil when disabled).
func (t *Tracer) SLOEngine() *SLO {
	if t == nil {
		return nil
	}
	return t.slo
}

// EnableDecisions turns on scheduler decision tracing: Decision() calls are
// recorded (and mirrored into the event sink, when it understands them)
// from now on. Off by default so event logs only carry decision lines when
// explicitly asked for (-explain / -serve).
func (t *Tracer) EnableDecisions() {
	if t == nil {
		return
	}
	t.decOn = true
}

// DecisionsEnabled reports whether decision tracing is on (false on nil).
func (t *Tracer) DecisionsEnabled() bool { return t != nil && t.decOn }

// Decision records one scheduler decision: appended to the in-memory stream
// (Decisions) and mirrored into the event sink when the sink implements
// decision.Sink (the JSONL sink does). A no-op unless EnableDecisions was
// called.
func (t *Tracer) Decision(rec decision.Record) {
	if t == nil || !t.decOn {
		return
	}
	t.decisions = append(t.decisions, rec)
	if ds, ok := t.sink.(decision.Sink); ok {
		ds.EmitDecision(rec)
	}
}

// Decisions returns the recorded decision stream in emission order. The
// slice is owned by the tracer; copy before mutating.
func (t *Tracer) Decisions() []decision.Record {
	if t == nil {
		return nil
	}
	return t.decisions
}

// DecisionsSnapshot returns the decision stream recorded so far for
// concurrent readers (live telemetry frames). The stream is append-only and
// a recorded Record is never rewritten, so the snapshot is a view of the
// tracer's own storage, capped at its length: publishing a frame copies
// nothing, and later appends land beyond what the view can reach.
func (t *Tracer) DecisionsSnapshot() []decision.Record {
	if t == nil || len(t.decisions) == 0 {
		return nil
	}
	n := len(t.decisions)
	return t.decisions[:n:n]
}

// Metrics returns the tracer's registry (nil on a nil tracer; the registry's
// methods are themselves nil-safe).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// SetProcessName names a Perfetto process (one per job, pid 0 = cluster).
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.procs[pid] = name
}

// SetThreadName names a Perfetto thread (a world rank within a job pid).
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.threads[threadKey{pid, tid}] = name
}

// BindRank routes rank-addressed spans to pid until UnbindRank: the cluster
// scheduler binds a world rank to a job's pid at admission.
func (t *Tracer) BindRank(rank, pid int) {
	if t == nil || rank < 0 {
		return
	}
	t.ensureRank(rank)
	t.curPID[rank] = pid
}

// UnbindRank returns rank-addressed spans to pid 0.
func (t *Tracer) UnbindRank(rank int) {
	if t == nil || rank < 0 || rank >= len(t.curPID) {
		return
	}
	t.curPID[rank] = 0
}

func (t *Tracer) ensureRank(rank int) {
	for len(t.curPID) <= rank {
		t.curPID = append(t.curPID, 0)
	}
}

func (t *Tracer) rankPID(rank int) int {
	if rank < 0 || rank >= len(t.curPID) {
		return 0
	}
	return t.curPID[rank]
}

// record counts one span and, when a reader has asked for spans, keeps it.
func (t *Tracer) record(sp span) {
	t.nSpans++
	if t.keep {
		t.spans = append(t.spans, sp)
	}
}

// Begin opens a span on an explicit (pid, tid) track and returns its id.
func (t *Tracer) Begin(pid, tid int, name, cat string, start float64, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	t.record(span{name: name, cat: cat, pid: pid, tid: tid,
		start: start, end: start - 1, attrs: attrs})
	id := SpanID(t.nSpans)
	if t.sink != nil {
		t.sink.Emit(Event{E: "begin", ID: int(id), T: start, PID: pid, TID: tid,
			Name: name, Cat: cat, Attrs: attrs})
	}
	return id
}

// End closes an open span. A zero id is ignored.
func (t *Tracer) End(id SpanID, end float64) {
	if t == nil || id <= 0 {
		return
	}
	if int(id) <= len(t.spans) {
		t.spans[id-1].end = end
	}
	if t.sink != nil {
		t.sink.Emit(Event{E: "end", ID: int(id), T: end})
	}
}

// AddAttr appends attributes to an open or closed span.
func (t *Tracer) AddAttr(id SpanID, attrs ...Attr) {
	if t == nil || id <= 0 {
		return
	}
	if int(id) <= len(t.spans) {
		sp := &t.spans[id-1]
		sp.attrs = append(sp.attrs, attrs...)
	}
	if t.sink != nil {
		t.sink.Emit(Event{E: "attr", ID: int(id), Attrs: attrs})
	}
}

// Span records a complete span on an explicit (pid, tid) track.
func (t *Tracer) Span(pid, tid int, name, cat string, start, end float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.record(span{name: name, cat: cat, pid: pid, tid: tid,
		start: start, end: end, attrs: attrs})
	if t.sink != nil {
		t.sink.Emit(Event{E: "span", T: start, Dur: end - start, PID: pid, TID: tid,
			Name: name, Cat: cat, Attrs: attrs})
	}
}

// BeginRank opens a span on rank's current (bound pid, tid = rank) track.
func (t *Tracer) BeginRank(rank int, name, cat string, start float64, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	return t.Begin(t.rankPID(rank), rank, name, cat, start, attrs...)
}

// SpanRank records a complete span on rank's current track.
func (t *Tracer) SpanRank(rank int, name, cat string, start, end float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.Span(t.rankPID(rank), rank, name, cat, start, end, attrs...)
}

// Instant records a zero-duration event (rendered as an arrow in Perfetto).
func (t *Tracer) Instant(pid, tid int, name, cat string, ts float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.record(span{name: name, cat: cat, pid: pid, tid: tid,
		start: ts, end: ts, attrs: attrs})
	if t.sink != nil {
		t.sink.Emit(Event{E: "instant", T: ts, PID: pid, TID: tid,
			Name: name, Cat: cat, Attrs: attrs})
	}
}

// Counter appends one sample of a Perfetto counter track (queue depth,
// busy ranks) on pid 0.
func (t *Tracer) Counter(name string, ts, val float64) {
	if t == nil {
		return
	}
	if t.keep {
		t.samples = append(t.samples, counterSample{name: name, ts: ts, val: val})
	}
	if t.sink != nil {
		t.sink.Emit(Event{E: "sample", T: ts, Name: name, Value: val})
	}
}

// Alert records an SLO rule firing: an instant span on the scheduler track
// (cat "slo", visible in Perfetto) plus an "alert" event in the event log.
// The span store is appended directly so the alert is not double-mirrored as
// an "instant" event.
func (t *Tracer) Alert(name string, ts float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.record(span{name: name, cat: "slo", pid: 0, tid: 0,
		start: ts, end: ts, attrs: attrs})
	if t.sink != nil {
		t.sink.Emit(Event{E: "alert", T: ts, Name: name, Attrs: attrs})
	}
}

// NumSpans returns how many spans have been recorded, kept or not.
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	return t.nSpans
}

// EachSpan calls fn for every recorded span in creation order.
func (t *Tracer) EachSpan(fn func(SpanView)) {
	if t == nil {
		return
	}
	for i := range t.spans {
		sp := &t.spans[i]
		end := sp.end
		if end < sp.start {
			end = sp.start // never-closed span: render as zero-duration
		}
		fn(SpanView{Name: sp.name, Cat: sp.cat, PID: sp.pid, TID: sp.tid,
			Start: sp.start, End: end, Attrs: sp.attrs})
	}
}
