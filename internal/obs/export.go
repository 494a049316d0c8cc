package obs

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"

	"repro/internal/jsonl"
)

// ChromeTrace is the Perfetto export as a sink: it rebuilds, from the events
// and track names a tracer emits, the spans, counter samples and names it
// writes as Chrome trace-event JSON (the format Perfetto and
// chrome://tracing load). It is the one reader that holds a run's spans, so
// it is attached only when the export is asked for (-trace).
//
// Attach it before the tracer records its first span: a span's place in the
// export is its id, the order the tracer created spans in.
type ChromeTrace struct {
	spans   []chromeSpan
	samples []Event
	procs   map[int]string
	threads map[threadKey]string
}

type chromeSpan struct {
	name, cat  string
	pid, tid   int
	start, dur float64 // dur stays 0 for a span that never closes
	attrs      []Attr
}

type threadKey struct{ pid, tid int }

// NewChromeTrace returns an empty export.
func NewChromeTrace() *ChromeTrace {
	return &ChromeTrace{procs: make(map[int]string), threads: make(map[threadKey]string)}
}

// Emit implements EventSink. Span attributes are kept as given, and late
// ones are appended to them.
func (c *ChromeTrace) Emit(e Event) {
	switch e.E {
	case "begin", "span", "instant":
		c.spans = append(c.spans, chromeSpan{name: e.Name, cat: e.Cat, pid: e.PID, tid: e.TID,
			start: e.T, dur: e.Dur, attrs: e.Attrs})
	case "alert":
		c.spans = append(c.spans, chromeSpan{name: e.Name, cat: "slo", start: e.T, attrs: e.Attrs})
	case "end":
		if sp := c.span(e.ID); sp != nil {
			sp.dur = e.T - sp.start
		}
	case "attr":
		if sp := c.span(e.ID); sp != nil {
			sp.attrs = append(sp.attrs, e.Attrs...)
		}
	case "sample":
		c.samples = append(c.samples, e)
	}
}

// span returns the span a begin event's id names.
func (c *ChromeTrace) span(id int) *chromeSpan {
	if id <= 0 || id > len(c.spans) {
		return nil
	}
	return &c.spans[id-1]
}

// ProcessName implements NameSink.
func (c *ChromeTrace) ProcessName(pid int, name string) { c.procs[pid] = name }

// ThreadName implements NameSink.
func (c *ChromeTrace) ThreadName(pid, tid int, name string) {
	c.threads[threadKey{pid, tid}] = name
}

// Export writes the trace: process/thread metadata first (sorted; a track
// named twice keeps its last name), then every span as a complete "X" event
// in creation order, then counter samples as "C" events. Timestamps and
// durations are microseconds of virtual time with fixed 3-decimal
// formatting, so the same run produces byte-identical output.
//
// Layout: pid 0 is the cluster scheduler (one tid per job showing its
// queued/run intervals, plus counter tracks); pid j+1 is job j with one tid
// per world rank showing cc/adio/pfs/mpi detail.
func (c *ChromeTrace) Export(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	var b []byte
	sep := "\n"
	put := func() {
		bw.WriteString(sep)
		bw.Write(b)
		sep = ",\n"
	}
	meta := func(kind string, k threadKey, name string) {
		b = fmt.Appendf(b[:0], `{"ph":"M","name":"%s","pid":%d,"tid":%d,"args":{"name":`, kind, k.pid, k.tid)
		b = append(jsonl.AppendString(b, name), "}}"...)
		put()
	}
	for _, pid := range slices.Sorted(maps.Keys(c.procs)) {
		meta("process_name", threadKey{pid, 0}, c.procs[pid])
	}
	for _, k := range slices.SortedFunc(maps.Keys(c.threads), func(a, b threadKey) int {
		return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(a.tid, b.tid))
	}) {
		meta("thread_name", k, c.threads[k])
	}
	for _, sp := range c.spans {
		b = jsonl.AppendString(append(b[:0], `{"ph":"X","name":`...), sp.name)
		b = jsonl.AppendString(append(b, `,"cat":`...), sp.cat)
		b = fmt.Appendf(b, `,"pid":%d,"tid":%d,"ts":%s,"dur":%s`, sp.pid, sp.tid, usec(sp.start), usec(max(sp.dur, 0)))
		for j, a := range sp.attrs {
			if j == 0 {
				b = append(b, `,"args":{`...)
			} else {
				b = append(b, ',')
			}
			b = jsonl.AppendString(append(jsonl.AppendString(b, a.Key), ':'), a.Val)
		}
		if len(sp.attrs) > 0 {
			b = append(b, '}')
		}
		b = append(b, '}')
		put()
	}
	for _, e := range c.samples {
		b = jsonl.AppendString(append(b[:0], `{"ph":"C","name":`...), e.Name)
		b = fmt.Appendf(b, `,"pid":0,"tid":0,"ts":%s,"args":{"value":%s}}`, usec(e.T), strconv.FormatFloat(e.Value, 'g', -1, 64))
		put()
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// usec renders virtual seconds as microseconds with fixed 3-decimal
// precision (nanosecond resolution) — the deterministic timestamp format.
func usec(sec float64) string {
	return strconv.FormatFloat(sec*1e6, 'f', 3, 64)
}
