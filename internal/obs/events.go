package obs

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/jsonl"
	"repro/internal/obs/decision"
)

// This file is the streaming structured event log of the telemetry plane:
// every span, instant, and counter sample flowing through a Tracer is
// mirrored — at emission time, in emission order — into each attached
// EventSink, and the JSONL serialization of that stream is
// byte-deterministic: two identical seeded runs produce byte-identical event
// logs. SLO alerts (slo.go) land in the same stream as "alert" events. Track
// names are not events: they reach only a NameSink, which the log is not.
//
// The classified rank-time intervals (RankTime.Record, one call per MPI
// message) are deliberately NOT events: they only accumulate into RankTime's
// totals, and logging them would dwarf every other event type.

// EventSchema is the versioned identifier written in the JSONL header line.
// Bump the suffix when the serialized shape of Event changes
// incompatibly; readers reject logs whose header names a different schema.
const EventSchema = "repro.events.v1"

// Event is one record of the structured event log.
//
// Types and the fields they carry (unset fields are omitted from JSONL):
//
//	"begin"   T PID TID Name Cat Attrs ID — a span opened (ID pairs it with "end"/"attr")
//	"end"     T ID                        — the span closed
//	"attr"    ID Attrs                    — attributes appended to a span (no own time)
//	"span"    T Dur PID TID Name Cat Attrs — a complete span
//	"instant" T PID TID Name Cat Attrs    — a zero-duration event
//	"sample"  T Name Value                — one counter-track sample
//	"alert"   T Name Attrs                — an SLO rule fired (see slo.go)
type Event struct {
	E     string
	ID    int
	T     float64
	Dur   float64
	PID   int
	TID   int
	Name  string
	Cat   string
	Value float64
	Attrs []Attr
}

// EventSink receives mirrored tracer events. Implementations must be cheap:
// Emit is called synchronously on the simulation's critical path. The
// event's Attrs are the caller's: a sink may keep them but not change them.
type EventSink interface {
	Emit(e Event)
}

// AppendEventJSON appends e's canonical JSONL serialization (no trailing
// newline) to dst. The byte layout is a pure function of the Event value —
// field order fixed, floats in shortest round-trip form, attributes as
// ordered ["k","v"] pairs (an object would lose their order) — so identical
// event streams serialize to identical bytes.
func AppendEventJSON(dst []byte, e Event) []byte {
	dst = append(dst, `{"e":`...)
	dst = jsonl.AppendString(dst, e.E)
	if e.ID != 0 {
		dst = append(dst, `,"id":`...)
		dst = jsonl.AppendInt(dst, e.ID)
	}
	if e.E != "attr" {
		dst = append(dst, `,"t":`...)
		dst = jsonl.AppendFloat(dst, e.T)
	}
	if e.E == "span" {
		dst = append(dst, `,"dur":`...)
		dst = jsonl.AppendFloat(dst, e.Dur)
	}
	switch e.E {
	case "begin", "span", "instant":
		dst = append(dst, `,"pid":`...)
		dst = jsonl.AppendInt(dst, e.PID)
		dst = append(dst, `,"tid":`...)
		dst = jsonl.AppendInt(dst, e.TID)
	}
	if e.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = jsonl.AppendString(dst, e.Name)
	}
	if e.Cat != "" {
		dst = append(dst, `,"cat":`...)
		dst = jsonl.AppendString(dst, e.Cat)
	}
	if e.E == "sample" {
		dst = append(dst, `,"value":`...)
		dst = jsonl.AppendFloat(dst, e.Value)
	}
	if len(e.Attrs) > 0 {
		dst = append(dst, `,"attrs":[`...)
		for i, a := range e.Attrs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			dst = jsonl.AppendString(dst, a.Key)
			dst = append(dst, ',')
			dst = jsonl.AppendString(dst, a.Val)
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// JSONLSink streams events as JSON Lines: one header line naming the schema
// version, then one line per event in emission order. Writes are buffered;
// call Close before reading the output. The first write error
// sticks and is reported by Close.
type JSONLSink struct {
	bw  *bufio.Writer
	err error
	buf []byte
}

// NewJSONLSink wraps w and writes the schema header immediately.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{bw: bufio.NewWriter(w)}
	_, s.err = s.bw.WriteString(`{"schema":"` + EventSchema + "\"}\n")
	return s
}

// Emit implements EventSink.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.buf = AppendEventJSON(s.buf[:0], e)
	s.buf = append(s.buf, '\n')
	_, s.err = s.bw.Write(s.buf)
}

// EmitDecision implements decision.Sink: scheduler decision records land in
// the same JSONL stream as the events, in emission order, as canonical
// repro.decisions.v2 lines (extract them with decision.ReadLog; ReadEvents
// skips them; ScanLog hands back both).
func (s *JSONLSink) EmitDecision(rec decision.Record) {
	if s.err != nil {
		return
	}
	s.buf = decision.AppendJSON(s.buf[:0], rec)
	s.buf = append(s.buf, '\n')
	_, s.err = s.bw.Write(s.buf)
}

// Close flushes the buffer to the underlying writer and returns the first
// error seen.
func (s *JSONLSink) Close() error {
	if s.err == nil {
		s.err = s.bw.Flush()
	}
	return s.err
}

// decodeEvent reads the line d stands at the start of into e, reusing
// e.Attrs' backing array. Keys may come in any order; unknown keys are
// skipped, and so are keys the line's type does not carry (an "end" with a
// duration), so what comes back is what AppendEventJSON writes again. typ is
// the type the line was dispatched on; a second "e" key that disagrees with
// it is an error.
func decodeEvent(d *jsonl.Dec, typ string, e *Event) error {
	*e = Event{Attrs: e.Attrs[:0]}
	for d.Object(); d.NextKey(); {
		switch string(d.Key()) {
		case "e":
			e.E = d.String()
		case "id":
			e.ID = d.Int()
		case "t":
			e.T = d.Float()
		case "dur":
			e.Dur = d.Float()
		case "pid":
			e.PID = d.Int()
		case "tid":
			e.TID = d.Int()
		case "name":
			e.Name = d.String()
		case "cat":
			e.Cat = d.String()
		case "value":
			e.Value = d.Float()
		case "attrs":
			e.Attrs = e.Attrs[:0]
			for d.Array(); d.More(); {
				var a Attr
				d.Array()
				for i := 0; d.More(); i++ {
					switch i {
					case 0:
						a.Key = d.String()
					case 1:
						a.Val = d.String()
					default:
						d.Skip()
					}
				}
				e.Attrs = append(e.Attrs, a)
			}
		default:
			d.Skip()
		}
	}
	if e.E == "attr" {
		e.T = 0
	}
	if e.E != "span" {
		e.Dur = 0
	}
	if e.E != "begin" && e.E != "span" && e.E != "instant" {
		e.PID, e.TID = 0, 0
	}
	if e.E != "sample" {
		e.Value = 0
	}
	if err := d.End(); err != nil {
		return err
	}
	if e.E != typ {
		return fmt.Errorf("line type given twice: %q and %q", typ, e.E)
	}
	return nil
}

// readHeader consumes the first line of a log and checks that it names
// schema; what says which log ("event log", "series file") for the errors.
func readHeader(sc *bufio.Scanner, d *jsonl.Dec, what, schema string) error {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("obs: empty %s (missing schema header)", what)
	}
	var got string
	d.Reset(sc.Bytes())
	for d.Object(); d.NextKey(); {
		if string(d.Key()) == "schema" {
			got = d.String()
		} else {
			d.Skip()
		}
	}
	if err := d.End(); err != nil {
		return fmt.Errorf("obs: bad %s header: %w", what, err)
	}
	if got != schema {
		return fmt.Errorf("obs: %s schema %q, want %q", what, got, schema)
	}
	return nil
}

// ScanLog reads a JSONL event log produced by JSONLSink in one pass: it
// validates the schema header, then hands every event to onEvent and every
// interleaved decision record (repro.decisions.v2, or v1) to onDecision, in
// file order. Either callback may be nil, and then its lines are only
// checked for syntax. The values passed are reused for the next line —
// copy what must outlive the call (Event.Attrs included). Lines whose "e"
// type is unknown (series points, future additions) are skipped, so a v1
// reader tolerates logs written by newer emitters; malformed JSON on any
// line is an error naming the line.
func ScanLog(r io.Reader, onEvent func(*Event), onDecision func(*decision.Record)) error {
	sc := jsonl.NewScanner(r)
	var d jsonl.Dec
	if err := readHeader(sc, &d, "event log", EventSchema); err != nil {
		return err
	}
	var (
		ev  Event
		rec decision.Record
	)
	for line := 2; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		typ, err := d.Type(sc.Bytes())
		switch {
		case err != nil:
		case typ == "decision" && onDecision != nil:
			if err = decision.Decode(&d, &rec); err == nil {
				onDecision(&rec)
			}
		case onEvent != nil && isEventType(typ):
			if err = decodeEvent(&d, typ, &ev); err == nil {
				onEvent(&ev)
			}
		default:
			d.Skip()
			err = d.End()
		}
		if err != nil {
			return fmt.Errorf("obs: event log line %d: %w", line, err)
		}
	}
	return sc.Err()
}

// isEventType reports whether typ is one of Event's line types.
func isEventType(typ string) bool {
	switch typ {
	case "begin", "end", "attr", "span", "instant", "sample", "alert":
		return true
	}
	return false
}

// ReadEvents parses a JSONL event log produced by JSONLSink: it validates
// the schema header and returns the events in file order (see ScanLog for
// what is skipped and what is an error).
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	err := ScanLog(r, func(e *Event) {
		c := *e
		c.Attrs = append([]Attr(nil), e.Attrs...)
		out = append(out, c)
	}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}
