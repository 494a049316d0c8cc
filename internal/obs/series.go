package obs

import (
	"io"

	"repro/internal/jsonl"
)

// This file is the durable time-series leg of the telemetry plane: the
// cluster samples one SeriesPoint per scheduler round (virtual-clock
// aligned) into a SeriesSink, which streams versioned JSONL. Like the event
// log, the serialization is byte-deterministic — identical seeded runs
// produce identical series files — and the sink retains nothing, so it is
// bounded-memory at million-job scale, like the event log.

// SeriesSchema is the versioned identifier written in the series header
// line. Readers reject files whose header names a different schema.
const SeriesSchema = "repro.series.v1"

// ClassWait is the sliding-window wait summary for one SLO class at one
// sample point: n admissions in the window, nearest-rank p50/p99 over them.
type ClassWait struct {
	Class string
	N     int
	P50   float64
	P99   float64
}

// SeriesPoint is one round-aligned snapshot of cluster state.
type SeriesPoint struct {
	Round      int     // scheduler decision round
	T          float64 // virtual time of the round boundary
	QueueDepth int
	RanksBusy  int
	RanksTotal int
	OSTBusy    []float64   // cumulative per-OST busy seconds, index = OST id
	Classes    []ClassWait // sorted by class name
}

// AppendSeriesJSON appends p's canonical JSONL serialization (no trailing
// newline) to dst: fixed field order, shortest round-trip floats, classes as
// ordered objects. The byte layout is a pure function of the point.
func AppendSeriesJSON(dst []byte, p SeriesPoint) []byte { return appendSeries(dst, &p, nil) }

// appendSeries is AppendSeriesJSON rendering "t" through slot 0 of fc and
// OST i's busy time through slot i+1 (nil caches nothing).
func appendSeries(dst []byte, p *SeriesPoint, fc *jsonl.FloatCache) []byte {
	dst = append(dst, `{"e":"pt","round":`...)
	dst = jsonl.AppendInt(dst, p.Round)
	dst = append(dst, `,"t":`...)
	dst = fc.Append(dst, 0, p.T)
	dst = append(dst, `,"queue":`...)
	dst = jsonl.AppendInt(dst, p.QueueDepth)
	dst = append(dst, `,"busy":`...)
	dst = jsonl.AppendInt(dst, p.RanksBusy)
	dst = append(dst, `,"ranks":`...)
	dst = jsonl.AppendInt(dst, p.RanksTotal)
	if len(p.OSTBusy) > 0 {
		dst = append(dst, `,"ost_busy":[`...)
		for i, v := range p.OSTBusy {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = fc.Append(dst, i+1, v)
		}
		dst = append(dst, ']')
	}
	if len(p.Classes) > 0 {
		dst = append(dst, `,"classes":[`...)
		for i, c := range p.Classes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"class":`...)
			dst = jsonl.AppendString(dst, c.Class)
			dst = append(dst, `,"n":`...)
			dst = jsonl.AppendInt(dst, c.N)
			dst = append(dst, `,"p50":`...)
			dst = jsonl.AppendFloat(dst, c.P50)
			dst = append(dst, `,"p99":`...)
			dst = jsonl.AppendFloat(dst, c.P99)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// SeriesSink streams SeriesPoints as JSON Lines through a jsonl.Writer: one
// header line naming the schema version, then one line per point. Call
// Close before reading the output; it reports the first write error. The
// cumulative OST busy times barely move between rounds, so each OST renders
// through its own FloatCache slot, and only the changed ones are formatted.
type SeriesSink struct {
	w   *jsonl.Writer
	buf []byte
	fc  jsonl.FloatCache
	n   int
}

// NewSeriesSink wraps w and writes the schema header immediately.
func NewSeriesSink(w io.Writer) *SeriesSink {
	return &SeriesSink{w: jsonl.NewWriter(w, SeriesSchema)}
}

// Sample appends one point. The point is valid only during the call.
func (s *SeriesSink) Sample(p SeriesPoint) {
	if s == nil {
		return
	}
	s.n++
	s.buf = appendSeries(s.buf[:0], &p, &s.fc)
	s.w.Line(s.buf)
}

// Points returns how many points have been sampled.
func (s *SeriesSink) Points() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Close flushes and returns the first write error.
func (s *SeriesSink) Close() error {
	if s == nil {
		return nil
	}
	return s.w.Close()
}

// decodePoint reads the series line d stands at the start of into p,
// reusing p's slices. Keys may come in any order; unknown keys are skipped.
func decodePoint(d *jsonl.Dec, p *SeriesPoint) error {
	*p = SeriesPoint{OSTBusy: p.OSTBusy[:0], Classes: p.Classes[:0]}
	for d.Object(); d.NextKey(); {
		switch string(d.Key()) {
		case "round":
			p.Round = d.Int()
		case "t":
			p.T = d.Float()
		case "queue":
			p.QueueDepth = d.Int()
		case "busy":
			p.RanksBusy = d.Int()
		case "ranks":
			p.RanksTotal = d.Int()
		case "ost_busy":
			p.OSTBusy = p.OSTBusy[:0]
			for d.Array(); d.More(); {
				p.OSTBusy = append(p.OSTBusy, d.Float())
			}
		case "classes":
			p.Classes = p.Classes[:0]
			for d.Array(); d.More(); {
				var c ClassWait
				for d.Object(); d.NextKey(); {
					switch string(d.Key()) {
					case "class":
						c.Class = d.String()
					case "n":
						c.N = d.Int()
					case "p50":
						c.P50 = d.Float()
					case "p99":
						c.P99 = d.Float()
					default:
						d.Skip()
					}
				}
				p.Classes = append(p.Classes, c)
			}
		default:
			d.Skip()
		}
	}
	return d.End()
}

// ScanSeries reads a JSONL series file produced by SeriesSink in one pass:
// it validates the schema header and hands every point to fn in file order.
// The point is reused for the next line — copy what must outlive the call.
// Lines with an unknown "e" type are skipped, so a v1 reader tolerates
// forward-compatible additions; malformed JSON on any line is an error naming
// the line.
func ScanSeries(r io.Reader, fn func(*SeriesPoint)) error {
	var p SeriesPoint
	return jsonl.Scan(r, "obs: series file", SeriesSchema, func(d *jsonl.Dec, typ string) error {
		if typ != "pt" {
			d.Skip()
			return d.End()
		}
		if err := decodePoint(d, &p); err != nil {
			return err
		}
		fn(&p)
		return nil
	})
}
