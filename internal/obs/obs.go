// Package obs is the structured observability layer of the runtime: a
// virtual-clock span tracer plus a typed metrics registry that every layer
// (cluster, cc, adio, pfs, mpi) emits into. Spans nest scheduler → job → cc
// phase → adio iteration → pfs request / mpi message and carry string
// attributes. The tracer keeps none of them: it is one event stream, fanned
// out as it is emitted to the sinks that read it — the JSONL event log, the
// Perfetto export (ChromeTrace, Chrome trace-event JSON), report's phase
// fold — while the registry aggregates in place into a stable text dump.
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

// Tracer is the emitter of the telemetry plane. Create with New; share one
// instance across the whole run (the cluster binds world ranks to job pids
// as jobs are admitted, so rank-routed spans land in the right job's track).
// It keeps no span, counter sample or track name: each is mirrored, as it is
// made, into the attached sinks (AddSink), and a reader reads what its own
// sink folded. Spans are counted, so ids and NumSpans do not depend on which
// sinks are attached.
type Tracer struct {
	reg    *Registry
	nSpans int   // spans recorded; the latest Begin's id
	curPID []int // world rank -> bound pid (0 = cluster/unbound)

	// Sinks, in attach order: every event reaches each sink, and track names,
	// decision records and series points reach only the sinks that read them.
	sinks      []EventSink
	nameSinks  []NameSink
	decSinks   []decision.Sink
	pointSinks []PointSink

	// Driven by the cluster at scheduler round boundaries (both optional;
	// see slo.go, series.go).
	slo    *SLO
	series *SeriesSink

	// Decision tracing (see internal/obs/decision): opt-in, because decision
	// records land in the event log and default-off keeps existing golden
	// event logs byte-stable. The records are kept in decChunk-record chunks,
	// so recording one copies no earlier one; decFlat is Decisions()' last
	// flattening of them, and decChunks holds what came after it.
	decOn     bool
	decFlat   []decision.Record
	decChunks [][]decision.Record
}

// decChunk is how many decision records one chunk of the store holds.
const decChunk = 256

// New returns an enabled tracer with a fresh metrics registry and no sink.
func New() *Tracer {
	return &Tracer{reg: NewRegistry()}
}

// NameSink is implemented by sinks that read track names: the Perfetto
// export names a process per job (pid 0 is the cluster scheduler) and a
// thread per world rank.
type NameSink interface {
	ProcessName(pid int, name string)
	ThreadName(pid, tid int, name string)
}

// PointSink is implemented by sinks that read the round series: report's
// fold keeps the points a run's series log records.
type PointSink interface {
	Sample(p SeriesPoint)
}

// AddSink attaches a sink: from now on every span begin/end, attribute,
// complete span, instant, counter sample and SLO alert recorded through the
// tracer is mirrored into it in emission order (see events.go), after the
// sinks attached before it. A sink that is also a NameSink receives track
// names, one that is also a decision.Sink receives decision records, and one
// that is also a PointSink receives series points (see Sample).
func (t *Tracer) AddSink(s EventSink) {
	if t == nil {
		return
	}
	t.sinks = append(t.sinks, s)
	if n, ok := s.(NameSink); ok {
		t.nameSinks = append(t.nameSinks, n)
	}
	if d, ok := s.(decision.Sink); ok {
		t.decSinks = append(t.decSinks, d)
	}
	if p, ok := s.(PointSink); ok {
		t.pointSinks = append(t.pointSinks, p)
	}
}

// emit mirrors e into every sink.
func (t *Tracer) emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
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

// Sample records one series point: into the series sink, then into every
// PointSink. A no-op unless a series sink is installed, so a run records
// points exactly when its series log does.
func (t *Tracer) Sample(p SeriesPoint) {
	if t == nil || t.series == nil {
		return
	}
	t.series.Sample(p)
	for _, s := range t.pointSinks {
		s.Sample(p)
	}
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
// recorded (and mirrored into the sinks that read them) from now on. Off by
// default so event logs only carry decision lines when explicitly asked for
// (-explain).
func (t *Tracer) EnableDecisions() {
	if t == nil {
		return
	}
	t.decOn = true
}

// DecisionsEnabled reports whether decision tracing is on (false on nil).
func (t *Tracer) DecisionsEnabled() bool { return t != nil && t.decOn }

// Decision records one scheduler decision: appended to the in-memory stream
// (Decisions) and mirrored into every sink that is a decision.Sink (the
// JSONL sink is). A no-op unless EnableDecisions was called.
func (t *Tracer) Decision(rec decision.Record) {
	if t == nil || !t.decOn {
		return
	}
	n := len(t.decChunks)
	if n == 0 || len(t.decChunks[n-1]) == decChunk {
		t.decChunks = append(t.decChunks, make([]decision.Record, 0, decChunk))
		n++
	}
	t.decChunks[n-1] = append(t.decChunks[n-1], rec)
	for _, s := range t.decSinks {
		s.EmitDecision(rec)
	}
}

// Decisions returns the recorded decision stream in emission order. The
// slice is owned by the tracer; copy before mutating. The records made since
// the last call are flattened into one slice here, once per call.
func (t *Tracer) Decisions() []decision.Record {
	if t == nil {
		return nil
	}
	if len(t.decChunks) > 0 {
		n := len(t.decFlat)
		for _, c := range t.decChunks {
			n += len(c)
		}
		flat := append(make([]decision.Record, 0, n), t.decFlat...)
		for _, c := range t.decChunks {
			flat = append(flat, c...)
		}
		t.decFlat, t.decChunks = flat, nil
	}
	return t.decFlat
}

// Metrics returns the tracer's registry (nil on a nil tracer; the registry's
// methods are themselves nil-safe).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// SetProcessName names a Perfetto process (one per job, pid 0 = cluster) in
// every NameSink.
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	for _, s := range t.nameSinks {
		s.ProcessName(pid, name)
	}
}

// SetThreadName names a Perfetto thread (a world rank within a job pid) in
// every NameSink.
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	for _, s := range t.nameSinks {
		s.ThreadName(pid, tid, name)
	}
}

// BindRank routes rank-addressed spans to pid until UnbindRank: the cluster
// scheduler binds a world rank to a job's pid at admission.
func (t *Tracer) BindRank(rank, pid int) {
	if t == nil || rank < 0 {
		return
	}
	for len(t.curPID) <= rank {
		t.curPID = append(t.curPID, 0)
	}
	t.curPID[rank] = pid
}

// UnbindRank returns rank-addressed spans to pid 0.
func (t *Tracer) UnbindRank(rank int) {
	if t == nil || rank < 0 || rank >= len(t.curPID) {
		return
	}
	t.curPID[rank] = 0
}

func (t *Tracer) rankPID(rank int) int {
	if rank < 0 || rank >= len(t.curPID) {
		return 0
	}
	return t.curPID[rank]
}

// Begin opens a span on an explicit (pid, tid) track and returns its id.
func (t *Tracer) Begin(pid, tid int, name, cat string, start float64, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	t.nSpans++
	id := SpanID(t.nSpans)
	t.emit(Event{E: "begin", ID: int(id), T: start, PID: pid, TID: tid,
		Name: name, Cat: cat, Attrs: attrs})
	return id
}

// End closes an open span. A zero id is ignored.
func (t *Tracer) End(id SpanID, end float64) {
	if t == nil || id <= 0 {
		return
	}
	t.emit(Event{E: "end", ID: int(id), T: end})
}

// AddAttr appends attributes to an open or closed span.
func (t *Tracer) AddAttr(id SpanID, attrs ...Attr) {
	if t == nil || id <= 0 {
		return
	}
	t.emit(Event{E: "attr", ID: int(id), Attrs: attrs})
}

// Span records a complete span on an explicit (pid, tid) track.
func (t *Tracer) Span(pid, tid int, name, cat string, start, end float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.nSpans++
	t.emit(Event{E: "span", T: start, Dur: end - start, PID: pid, TID: tid,
		Name: name, Cat: cat, Attrs: attrs})
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
	t.nSpans++
	t.emit(Event{E: "instant", T: ts, PID: pid, TID: tid,
		Name: name, Cat: cat, Attrs: attrs})
}

// Counter appends one sample of a Perfetto counter track (queue depth,
// busy ranks) on pid 0.
func (t *Tracer) Counter(name string, ts, val float64) {
	if t == nil {
		return
	}
	t.emit(Event{E: "sample", T: ts, Name: name, Value: val})
}

// Alert records an SLO rule firing: an "alert" event, counted as a span and
// drawn by the Perfetto export as an instant on the scheduler track.
func (t *Tracer) Alert(name string, ts float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.nSpans++
	t.emit(Event{E: "alert", T: ts, Name: name, Attrs: attrs})
}

// NumSpans returns how many spans (begun, complete, instants and alerts)
// have been recorded.
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	return t.nSpans
}
