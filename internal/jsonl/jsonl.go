// Package jsonl is the one line codec under the repo's JSONL schemas
// (repro.events.v1, repro.decisions.v2, repro.series.v1, repro.workload.v1):
// the value renderers every canonical line writer appends with, the Writer
// every artifact is written through, the line loop (Scan) every reader
// reads through, and a scanner (Dec) for the single-object lines they hold.
//
// The writers' byte layout is pinned by committed goldens, so the renderers
// reproduce encoding/json exactly: AppendString is json.Marshal of a string
// (HTML-escaping <, > and &, U+2028/2029 escaped, invalid UTF-8 replaced),
// AppendFloat the shortest round-trip form the logs have always carried.
// The scanner (Dec) is hand-written because reading these lines back through
// reflection was most of what an explained run cost; it validates the whole
// line, takes keys in any order, lets the caller skip keys it does not know,
// and interns short strings so a log's few thousand distinct names and
// reasons are allocated once. Keys are case-sensitive and null is no value
// of any type.
package jsonl

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string literal, byte for byte what
// json.Marshal(s) produces.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends v in shortest round-trip form.
func AppendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// FloatCache renders the float fields of a stream whose values repeat from
// line to line: slot i remembers the last value appended through it and the
// text AppendFloat gave it, and renders again only when the value changed.
// The value is compared by its bits (math.Float64bits), never with ==: -0 and
// +0 are equal and print "-0" and "0", and a NaN equals nothing. The bytes are
// AppendFloat's. A nil *FloatCache caches nothing; the zero value is ready to
// use.
type FloatCache struct{ slots []floatSlot }

// floatSlot is one cached rendering. n == 0 marks it empty: every rendering
// has at least one byte.
type floatSlot struct {
	bits uint64
	n    uint8
	text [32]byte // the longest shortest form, "-2.2250738585072014e-308", is 24
}

// Append appends v in shortest round-trip form through slot i, growing the
// cache to hold it.
func (c *FloatCache) Append(dst []byte, i int, v float64) []byte {
	if c == nil {
		return AppendFloat(dst, v)
	}
	if i >= len(c.slots) {
		c.slots = append(c.slots, make([]floatSlot, i+1-len(c.slots))...)
	}
	s := &c.slots[i]
	if b := math.Float64bits(v); s.n == 0 || s.bits != b {
		s.bits = b
		s.n = uint8(len(AppendFloat(s.text[:0], v)))
	}
	return append(dst, s.text[:s.n]...)
}

// AppendInt appends v in decimal.
func AppendInt(dst []byte, v int) []byte {
	return strconv.AppendInt(dst, int64(v), 10)
}

// Writer writes one JSONL artifact: the {"schema":…} header line, then one
// buffered line per Line call. The first write error sticks — later lines
// are dropped — and Close reports it.
type Writer struct{ bw *bufio.Writer }

// writerBuf is a Writer's buffer: a run's event log reaches the file in
// writes of this size. The telemetry sinks write beside the simulation (see
// internal/obs), so the write calls a smaller buffer adds cost the run
// nothing, and the buffer stays a small part of what an observed run
// allocates.
const writerBuf = 16 << 10

// NewWriter wraps w and writes the header naming schema.
func NewWriter(w io.Writer, schema string) *Writer {
	jw := &Writer{bufio.NewWriterSize(w, writerBuf)}
	jw.Line(append(AppendString([]byte(`{"schema":`), schema), '}'))
	return jw
}

// Line writes line and a newline.
func (w *Writer) Line(line []byte) {
	w.bw.Write(line)
	w.bw.WriteByte('\n')
}

// Close flushes the buffer and returns the first write error. The
// underlying writer stays open.
func (w *Writer) Close() error { return w.bw.Flush() }

// NewScanner returns the line reader Scan reads through: one line per Scan,
// lines up to 1 MiB.
func NewScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return sc
}

// Scan is the line loop every reader shares. what names the artifact in
// errors ("obs: event log"). When schema is not "", the first line must be
// the header {"schema":schema}. Blank lines are skipped; every other line's
// "e" type (see Type) goes to fn with d at the start of the line, and fn's
// error, like a syntax error or the line reader's own, comes back naming
// the line. One Dec reads every line, so its interned strings are shared.
func Scan(r io.Reader, what, schema string, fn func(d *Dec, typ string) error) error {
	sc := NewScanner(r)
	var d Dec
	n := 0
	for sc.Scan() {
		n++
		line := sc.Bytes()
		var err error
		switch {
		case n == 1 && schema != "":
			d.Reset(line)
			if got := d.member("schema"); d.err != nil {
				err = fmt.Errorf("bad header: %w", d.err)
			} else if got != schema {
				err = fmt.Errorf("schema %q, want %q", got, schema)
			}
		case len(line) == 0:
		default:
			var typ string
			if typ, err = d.Type(line); err == nil {
				err = fn(&d, typ)
			}
		}
		if err != nil {
			return fmt.Errorf("%s line %d: %w", what, n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s line %d: %w", what, n+1, err)
	}
	if n == 0 && schema != "" {
		return fmt.Errorf("%s is empty (missing schema header)", what)
	}
	return nil
}

// Interning bounds: strings longer than maxInternLen (free-rank sets, error
// texts) are not worth a table slot, and a full table stops growing, so a
// hostile log cannot make the scanner hold more than a few megabytes.
const (
	maxInternLen     = 64
	maxInternEntries = 1 << 16
	maxDepth         = 64 // nesting Skip follows; the writers emit 3
)

// Dec scans one line holding one JSON object. The caller drives it:
//
//	d.Reset(line)
//	d.Object()
//	for d.NextKey() {
//		switch string(d.Key()) {
//		case "t":
//			t = d.Float()
//		case "attrs":
//			for d.Array(); d.More(); { ... }
//		default:
//			d.Skip()
//		}
//	}
//	err := d.End()
//
// The first syntax or type error sticks: every later call is a no-op
// returning a zero value, and End reports it with its byte offset. A value
// getter (String, Int, Uint64, Float, Bool) on a value of another type —
// null included — is an error. The zero Dec is ready to use; reuse one
// across lines to keep its interned strings.
type Dec struct {
	buf     []byte
	pos     int
	open    bool // the last token consumed opened a container
	err     error
	key     []byte
	scratch []byte // a string literal's bytes once unescaped
	intern  map[string]string
}

// Reset points d at a new line and clears any error.
func (d *Dec) Reset(line []byte) {
	d.buf, d.pos, d.open, d.err = line, 0, false, nil
}

func (d *Dec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.pos, msg)
	}
}

// peek skips white space and returns the next byte, or 0 (after failing)
// at the end of the line or once an error has stuck.
func (d *Dec) peek() byte {
	if d.err != nil {
		return 0
	}
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	d.fail("unexpected end of line")
	return 0
}

func (d *Dec) expect(c byte, what string) {
	if got := d.peek(); d.err == nil {
		if got != c {
			d.fail("want " + what)
			return
		}
		d.pos++
	}
}

// Object consumes the '{' opening an object; iterate it with NextKey.
func (d *Dec) Object() {
	d.expect('{', "object")
	d.open = true
}

// Array consumes the '[' opening an array; iterate it with More.
func (d *Dec) Array() {
	d.expect('[', "array")
	d.open = true
}

// more reports whether another element follows in the container closed by
// close, consuming the comma before it or the closing byte.
func (d *Dec) more(close byte) bool {
	c := d.peek()
	if d.err != nil {
		return false
	}
	if c == close {
		d.pos++
		d.open = false
		return false
	}
	if d.open {
		d.open = false
		return true
	}
	if c != ',' {
		d.fail("want ',' or '" + string(close) + "'")
		return false
	}
	d.pos++
	return true
}

// More reports whether the current array has another element; the caller
// must consume it before asking again.
func (d *Dec) More() bool { return d.more(']') }

// NextKey advances to the current object's next member and reports whether
// there is one; Key names it and the caller must consume its value.
func (d *Dec) NextKey() bool {
	if !d.more('}') {
		return false
	}
	d.key = d.str()
	d.expect(':', "':'")
	return d.err == nil
}

// Key is the current member's name, valid until the next call on d.
func (d *Dec) Key() []byte { return d.key }

// str consumes a string literal and returns its unescaped bytes, valid until
// the next call: a slice of the line when the literal needs no rewriting,
// d.scratch otherwise. Invalid UTF-8 becomes U+FFFD, as encoding/json reads it.
func (d *Dec) str() []byte {
	if d.peek() != '"' {
		d.fail("want string")
		return nil
	}
	d.pos++
	start := d.pos
	i := start
	for ; i < len(d.buf); i++ {
		c := d.buf[i]
		if c == '"' {
			d.pos = i + 1
			return d.buf[start:i]
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	out := append(d.scratch[:0], d.buf[start:i]...)
	defer func() { d.scratch = out[:0] }()
	for i < len(d.buf) {
		c := d.buf[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out
		case c < 0x20:
			d.pos = i
			d.fail("control character in string")
			return nil
		case c == '\\':
			i++
			if i >= len(d.buf) {
				break
			}
			switch e := d.buf[i]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.buf[i+1:])
				if r < 0 {
					d.pos = i
					d.fail(`bad \u escape`)
					return nil
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid low half right behind completes the pair; a
					// lone half reads as U+FFFD and consumes nothing more.
					var r2 rune = -1
					if i+2 < len(d.buf) && d.buf[i+1] == '\\' && d.buf[i+2] == 'u' {
						r2 = hex4(d.buf[i+3:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				d.pos = i
				d.fail("bad escape in string")
				return nil
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.buf[i:])
			out = utf8.AppendRune(out, r) // RuneError for an invalid byte
			i += size
		}
	}
	d.pos = len(d.buf)
	d.fail("unterminated string")
	return nil
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// String consumes a string value. Short strings are interned: equal values
// read through one Dec share one allocation.
func (d *Dec) String() string {
	b := d.str()
	if len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	if len(d.intern) < maxInternEntries {
		d.intern[s] = s
	}
	return s
}

// num consumes a number literal of the JSON grammar and reports whether it
// is an integer literal (no fraction, no exponent).
func (d *Dec) num() (lit []byte, integer bool) {
	c := d.peek()
	if d.err != nil {
		return nil, false
	}
	start := d.pos
	digits := func() bool {
		n := d.pos
		for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
			d.pos++
		}
		return d.pos > n
	}
	if c == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.buf) && d.buf[d.pos] == '0':
		d.pos++
	case !digits():
		d.pos = start
		d.fail("want number")
		return nil, false
	}
	integer = true
	if d.pos < len(d.buf) && d.buf[d.pos] == '.' {
		d.pos++
		integer = false
		if !digits() {
			d.fail("bad number")
			return nil, false
		}
	}
	if d.pos < len(d.buf) && (d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E') {
		d.pos++
		integer = false
		if d.pos < len(d.buf) && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if !digits() {
			d.fail("bad number")
			return nil, false
		}
	}
	return d.buf[start:d.pos], integer
}

// Int consumes an integer value; a fraction, an exponent or a value outside
// int's range is an error.
func (d *Dec) Int() int {
	lit, integer := d.num()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, 0)
	if !integer || err != nil {
		d.pos -= len(lit)
		d.fail("want integer, have " + string(lit))
		return 0
	}
	return int(v)
}

// Uint64 consumes a non-negative integer value; a sign, a fraction, an
// exponent or a value above 2⁶⁴−1 is an error.
func (d *Dec) Uint64() uint64 {
	lit, integer := d.num()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	if !integer || err != nil {
		d.pos -= len(lit)
		d.fail("want unsigned integer, have " + string(lit))
		return 0
	}
	return v
}

// Bool consumes true or false.
func (d *Dec) Bool() bool {
	switch d.peek() {
	case 't':
		d.literal("true")
		return d.err == nil
	case 'f':
		d.literal("false")
	default:
		d.fail("want bool")
	}
	return false
}

// Float consumes a number value; one outside float64's range is an error.
func (d *Dec) Float() float64 {
	lit, _ := d.num()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.pos -= len(lit)
		d.fail("number out of range: " + string(lit))
		return 0
	}
	return v
}

// Skip consumes one value of any type, checking its syntax.
func (d *Dec) Skip() { d.skip(0) }

func (d *Dec) skip(depth int) {
	if depth > maxDepth {
		d.fail("value nested too deep")
		return
	}
	switch c := d.peek(); {
	case d.err != nil:
	case c == '"':
		d.str()
	case c == '{':
		for d.Object(); d.NextKey(); {
			d.skip(depth + 1)
		}
	case c == '[':
		for d.Array(); d.More(); {
			d.skip(depth + 1)
		}
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	default:
		d.num()
	}
}

func (d *Dec) literal(word string) {
	if len(d.buf)-d.pos < len(word) || string(d.buf[d.pos:d.pos+len(word)]) != word {
		d.fail("want " + word)
		return
	}
	d.pos += len(word)
}

// End checks that only white space follows the object and returns the
// line's first error.
func (d *Dec) End() error {
	if d.err == nil {
		for d.pos < len(d.buf) {
			switch d.buf[d.pos] {
			case ' ', '\t', '\r', '\n':
				d.pos++
				continue
			}
			d.fail("data after the object")
			break
		}
	}
	return d.err
}

// typePrefix is how every canonical writer here starts a typed line.
const typePrefix = `{"e":"`

// Type points d at line and returns the value of its top-level "e" key, the
// line-type discriminator all the schemas share ("" when the object has
// none), leaving d at the start of the line for the caller to decode or
// Skip. Lines that start with the key, as every writer's do, cost one string
// read; any other line is scanned — and so validated — in full.
func (d *Dec) Type(line []byte) (string, error) {
	d.Reset(line)
	var typ string
	if len(line) > len(typePrefix) && string(line[:len(typePrefix)]) == typePrefix {
		d.pos = len(typePrefix) - 1
		typ = d.String()
	} else {
		typ = d.member("e")
	}
	err := d.err
	d.Reset(line)
	return typ, err
}

// member reads the whole object d stands at and returns the string value of
// its top-level key ("" when the object has none).
func (d *Dec) member(key string) string {
	var v string
	for d.Object(); d.NextKey(); {
		if string(d.key) == key {
			v = d.String()
		} else {
			d.Skip()
		}
	}
	d.End()
	return v
}
