package jsonl

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"
)

// randString draws from the bytes that make a JSON string writer's life
// hard: quotes and backslashes, control bytes, the HTML trio json.Marshal
// escapes, U+2028/2029, multi-byte runes, surrogate-range and invalid UTF-8.
func randString(r *rand.Rand) string {
	pool := []string{
		"a", "job-00042", " ", `"`, `\`, "/", "<", ">", "&", "\x00", "\x01", "\x1f",
		"\b", "\f", "\n", "\r", "\t", "\x7f", "é", "世界", "\u2028", "\u2029", "\u2027",
		"\U0001F600", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xef\xbf\xbd", "\xf4\x90\x80\x80",
	}
	var b strings.Builder
	for n := r.Intn(12); n > 0; n-- {
		if r.Intn(4) == 0 {
			b.WriteByte(byte(r.Intn(256)))
		} else {
			b.WriteString(pool[r.Intn(len(pool))])
		}
	}
	return b.String()
}

// TestAppendStringMatchesJSONMarshal: the goldens were written through
// json.Marshal, so the renderer must agree with it on every string.
func TestAppendStringMatchesJSONMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s := randString(r)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal gives %s", s, got, want)
		}
	}
	// Appends after what is already there.
	if got := AppendString([]byte("x:"), "a<b"); string(got) != `x:"a\u003cb"` {
		t.Fatalf("AppendString onto a prefix = %s", got)
	}
}

func TestAppendNumbers(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.1, 1e-5, 1.5e6, 1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want := strconv.FormatFloat(v, 'g', -1, 64)
		if got := string(AppendFloat(nil, v)); got != want {
			t.Errorf("AppendFloat(%v) = %s, want %s", v, got, want)
		}
		// Every float a writer emits must read back to the same bits.
		var d Dec
		d.Reset(AppendFloat(nil, v))
		if got := d.Float(); got != v || d.End() != nil {
			t.Errorf("Float(%s) = %v (%v), want %v", want, got, d.End(), v)
		}
	}
	for _, v := range []int{0, 7, -7, math.MaxInt64, math.MinInt64} {
		if got := string(AppendInt(nil, v)); got != strconv.Itoa(v) {
			t.Errorf("AppendInt(%d) = %s", v, got)
		}
		var d Dec
		d.Reset(AppendInt(nil, v))
		if got := d.Int(); got != v || d.End() != nil {
			t.Errorf("Int(%d) = %d (%v)", v, got, d.End())
		}
	}
}

// TestFloatCacheMatchesAppendFloat: a slot renders what AppendFloat renders
// whatever came through it before — -0 after +0, one NaN payload after
// another, a value after its repeat — and a nil cache renders the same.
func TestFloatCacheMatchesAppendFloat(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -2.2250738585072014e-308, 1, 0.1}
	r := rand.New(rand.NewSource(7))
	var c FloatCache
	for i := 0; i < 20000; i++ {
		v := pool[r.Intn(len(pool))]
		if r.Intn(3) == 0 {
			v = math.Float64frombits(r.Uint64())
		}
		slot := r.Intn(4)
		want := string(AppendFloat([]byte("x"), v))
		if got := string(c.Append([]byte("x"), slot, v)); got != want {
			t.Fatalf("slot %d: Append(%x) = %s, want %s", slot, math.Float64bits(v), got, want)
		}
		if got := string((*FloatCache)(nil).Append([]byte("x"), slot, v)); got != want {
			t.Fatalf("nil cache: Append(%x) = %s, want %s", math.Float64bits(v), got, want)
		}
	}
}

// TestStringMatchesJSONUnmarshal: whatever literal encoding/json accepts,
// Dec reads to the same string — escapes, \u pairs, lone surrogates, invalid
// UTF-8 — and what it rejects, Dec rejects.
func TestStringMatchesJSONUnmarshal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var lits []string
	for i := 0; i < 5000; i++ {
		b, _ := json.Marshal(randString(r))
		lits = append(lits, string(b))
		// The raw bytes between quotes: often invalid (bare control bytes,
		// stray quotes), sometimes valid with invalid UTF-8 inside.
		lits = append(lits, `"`+randString(r)+`"`)
	}
	lits = append(lits,
		`"é"`, `"\u00e9"`, `"\u00E9"`, `"😀"`, `"\ud83d\ude00"`, `"\uD83D\uDE00x"`, `"\ud83d"`, `"\ude00"`, `"\ud83dx"`, `"\ud83dA"`,
		`"\ud83d😀"`, `"\ud83d\ud83d\ude00"`, `"\ude00\ud83d"`, `"\u2028\u0000\u001f"`, `"\/"`, `"\b\f\n\r\t\"\\"`, `"\x"`, `"\u12"`, `"\u12g4"`, `"\`, `"abc`, `"a\`,
		`"\ud83d\ude0"`, `"\ud83d\u"`, `"tab	inside"`, "\"nl\ninside\"")
	for _, lit := range lits {
		var want string
		werr := json.Unmarshal([]byte(lit), &want)
		var d Dec
		d.Reset([]byte(lit))
		got := d.String()
		gerr := d.End()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("literal %q: encoding/json error %v, Dec error %v", lit, werr, gerr)
		}
		if werr == nil && got != want {
			t.Fatalf("literal %q: Dec reads %q, encoding/json %q", lit, got, want)
		}
		if gerr == nil && !utf8.ValidString(got) {
			t.Fatalf("literal %q: Dec returned invalid UTF-8 %q", lit, got)
		}
	}
}

type point struct {
	e     string
	t     float64
	n     int
	tags  []string
	pairs [][2]string
}

// decodePoint drives Dec the way the log readers do.
func decodePoint(d *Dec, line string) (point, error) {
	var p point
	d.Reset([]byte(line))
	for d.Object(); d.NextKey(); {
		switch string(d.Key()) {
		case "e":
			p.e = d.String()
		case "t":
			p.t = d.Float()
		case "n":
			p.n = d.Int()
		case "tags":
			for d.Array(); d.More(); {
				p.tags = append(p.tags, d.String())
			}
		case "pairs":
			for d.Array(); d.More(); {
				var kv [2]string
				d.Array()
				for i := 0; d.More(); i++ {
					if i < 2 {
						kv[i] = d.String()
					} else {
						d.Skip()
					}
				}
				p.pairs = append(p.pairs, kv)
			}
		default:
			d.Skip()
		}
	}
	return p, d.End()
}

func TestDecAnyOrderUnknownKeysNesting(t *testing.T) {
	var d Dec
	want := point{e: "pt", t: 1.5, n: -3, tags: []string{"a", "b"}, pairs: [][2]string{{"k", "v"}, {"x", "y"}}}
	for _, line := range []string{
		`{"e":"pt","t":1.5,"n":-3,"tags":["a","b"],"pairs":[["k","v"],["x","y"]]}`,
		`{"pairs":[["k","v"],["x","y"]],"tags":["a","b"],"n":-3,"t":1.5,"e":"pt"}`,
		` { "e" : "pt" , "future" : {"deep":[1,2,{"x":null}],"b":true,"c":false} , "t" : 15e-1 , "n" : -3 ,` +
			` "tags" : [ "a" , "b" ] , "pairs" : [ [ "k" , "v" ] , [ "x" , "y", "extra" ] ] , "zz": "s" } `,
		`{"e":"other","e":"pt","t":0,"t":1.5,"n":-3,"tags":["a","b"],"pairs":[["k","v"],["x","y"]],"extra":1}`,
	} {
		got, err := decodePoint(&d, line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if got.e != want.e || got.t != want.t || got.n != want.n ||
			strings.Join(got.tags, ",") != "a,b" || len(got.pairs) != 2 ||
			got.pairs[0] != want.pairs[0] || got.pairs[1] != want.pairs[1] {
			t.Fatalf("%s: decoded %+v, want %+v", line, got, want)
		}
	}
	if p, err := decodePoint(&d, `{}`); err != nil || p.e != "" || p.tags != nil {
		t.Fatalf("empty object: %+v, %v", p, err)
	}
	if p, err := decodePoint(&d, `{"tags":[],"pairs":[[]]}`); err != nil || p.tags != nil || len(p.pairs) != 1 {
		t.Fatalf("empty arrays: %+v, %v", p, err)
	}
}

func TestDecRejectsMalformedLines(t *testing.T) {
	var d Dec
	for _, line := range []string{
		``, ` `, `{`, `}`, `[]`, `"e"`, `null`, `{"e"}`, `{"e":}`, `{"e":"pt",}`, `{,"e":"pt"}`, `{"e":"pt"`,
		`{"e":"pt"} x`, `{"e":"pt"}{"e":"pt"}`, `{"e":"pt" "t":1}`, `{"e":"pt","t"}`, `{e:"pt"}`, `{'e':'pt'}`,
		`{"e":pt}`, `{"e":1}`, `{"e":null}`, `{"t":"1"}`, `{"t":null}`, `{"t":true}`, `{"t":01}`, `{"t":1.}`,
		`{"t":.5}`, `{"t":1e}`, `{"t":1e+}`, `{"t":-}`, `{"t":+1}`, `{"t":1e999}`, `{"t":NaN}`, `{"t":Infinity}`,
		`{"n":1.0}`, `{"n":1e2}`, `{"n":"1"}`, `{"n":99999999999999999999}`, `{"n":-99999999999999999999}`,
		`{"tags":"a"}`, `{"tags":["a",]}`, `{"tags":[,"a"]}`, `{"tags":["a" "b"]}`, `{"tags":["a"}`, `{"tags":[1]}`,
		`{"pairs":[["k",1]]}`, `{"pairs":["k"]}`, `{"x":tru}`, `{"x":nul}`, `{"x":falsey}`, `{"x":[1,2}`, `{"x":{"a":1]}`,
		`{"x":"unterminated}`, "{\"x\":\"ctl\x01\"}", `{"x":"\q"}`, `{"x":` + strings.Repeat("[", maxDepth+2) + strings.Repeat("]", maxDepth+2) + `}`,
	} {
		if _, err := decodePoint(&d, line); err == nil {
			t.Errorf("accepted malformed line %q", line)
		} else if !strings.HasPrefix(err.Error(), "offset ") {
			t.Errorf("%q: error %q does not name an offset", line, err)
		}
	}
	// The first error sticks and later calls are no-ops.
	d.Reset([]byte(`{"t":x,"n":1}`))
	d.Object()
	d.NextKey()
	d.Float()
	first := d.End()
	if d.NextKey() || d.Int() != 0 || d.String() != "" || d.More() || d.End() != first || first == nil {
		t.Fatalf("calls after an error were not no-ops (err %v)", d.End())
	}
}

// TestSkipAcceptsWhatJSONValidAccepts: Skip is the scanner's whole-line
// syntax check, so it must draw the line where encoding/json draws it.
func TestSkipAcceptsWhatJSONValidAccepts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	frags := []string{`{`, `}`, `[`, `]`, `,`, `:`, `"a"`, `"`, `1`, `-0`, `0.5`, `1e5`, `01`, `-`, `.`, `e`,
		`true`, `false`, `null`, `nul`, ` `, "\t", `\`, `"é"`, `"x\"y"`, `{"k":1}`, `[1,2]`, `{"a":[{"b":null}]}`}
	var d Dec
	for i := 0; i < 50000; i++ {
		var b strings.Builder
		for n := 1 + r.Intn(7); n > 0; n-- {
			b.WriteString(frags[r.Intn(len(frags))])
		}
		line := b.String()
		d.Reset([]byte(line))
		d.Skip()
		if got, want := d.End() == nil, json.Valid([]byte(line)); got != want {
			t.Fatalf("line %q: Skip accepts = %v, json.Valid = %v (%v)", line, got, want, d.End())
		}
	}
}

func TestType(t *testing.T) {
	var d Dec
	for _, c := range []struct {
		line, typ string
		ok        bool
	}{
		{`{"e":"span","t":1}`, "span", true},
		{`{"e":"decision","v":"x"`, "decision", true}, // fast path reads the type only; the decode pass finds the rest
		{`{"t":1,"e":"span"}`, "span", true},
		{` {"e":"span"}`, "span", true},
		{`{"schema":"repro.events.v1"}`, "", true},
		{`{"t":1,"e":"span"`, "", false},
		{`{"t":1,"e":7}`, "", false},
		{`{"e":"sp`, "", false},
		{`not json`, "", false},
	} {
		typ, err := d.Type([]byte(c.line))
		if (err == nil) != c.ok || (c.ok && typ != c.typ) {
			t.Errorf("Type(%s) = %q, %v; want %q, ok=%v", c.line, typ, err, c.typ, c.ok)
		}
		// Whatever Type found, d stands at the start of the line again.
		if d.pos != 0 || d.err != nil {
			t.Errorf("Type(%s) left pos=%d err=%v", c.line, d.pos, d.err)
		}
	}
}

// TestInterningAndSteadyStateZeroAlloc: equal short strings come back as one
// allocation, long ones and a full table still read correctly, and decoding
// a line whose strings have been seen allocates nothing.
func TestInterningAndSteadyStateZeroAlloc(t *testing.T) {
	var d Dec
	line := []byte(`{"e":"span","t":1.25,"n":42,"name":"pfs.read","esc":"a<b","x":[1,{"y":"z"}]}`)
	read := func() (string, string) {
		var name, esc string
		d.Reset(line)
		for d.Object(); d.NextKey(); {
			switch string(d.Key()) {
			case "name":
				name = d.String()
			case "esc":
				esc = d.String()
			case "t":
				d.Float()
			case "n":
				d.Int()
			default:
				d.Skip()
			}
		}
		if err := d.End(); err != nil {
			t.Fatal(err)
		}
		return name, esc
	}
	n1, e1 := read()
	n2, e2 := read()
	if n1 != "pfs.read" || e1 != "a<b" {
		t.Fatalf("read %q, %q", n1, e1)
	}
	if unsafe.StringData(n1) != unsafe.StringData(n2) || unsafe.StringData(e1) != unsafe.StringData(e2) {
		t.Fatal("equal strings read twice are two allocations")
	}
	if got := testing.AllocsPerRun(200, func() { read() }); got != 0 {
		t.Fatalf("steady-state decode allocates %v times per line, want 0", got)
	}
	long := strings.Repeat("r", maxInternLen+1)
	d.Reset([]byte(`"` + long + `"`))
	if got := d.String(); got != long || len(d.intern) > 4 {
		t.Fatalf("long string: read %d bytes, intern table %d entries", len(got), len(d.intern))
	}
	for i := 0; len(d.intern) < maxInternEntries; i++ {
		d.Reset([]byte(`"k` + strconv.Itoa(i) + `"`))
		_ = d.String()
	}
	d.Reset([]byte(`"one-more"`))
	if got := d.String(); got != "one-more" || len(d.intern) != maxInternEntries {
		t.Fatalf("full table: read %q, %d entries (cap %d)", got, len(d.intern), maxInternEntries)
	}
}

// FuzzSkipMatchesValid holds the scanner's syntax check to encoding/json's on
// arbitrary bytes (up to the nesting the scanner follows), and checks that a
// typed walk over any line errors instead of panicking.
func FuzzSkipMatchesValid(f *testing.F) {
	for _, s := range []string{
		`{"e":"span","id":3,"t":1.5,"attrs":[["k","v"]]}`, `{"e":"pt","classes":[{"class":"a","n":1}]}`,
		`{"x":"😀\ud83d\ude00\u2028"}`, `[[[[1]]]]`, `{"a":{"b":{"c":[true,false,null,-1.5e-7]}}}`, `{"a":1,}`, "\"\xff\"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var d Dec
		d.Reset(line)
		d.Skip()
		err := d.End()
		if depth := strings.Count(string(line), "[") + strings.Count(string(line), "{"); depth <= maxDepth {
			if (err == nil) != json.Valid(line) {
				t.Fatalf("Skip accepts = %v, json.Valid = %v (%v)", err == nil, json.Valid(line), err)
			}
		} else if err == nil && !json.Valid(line) {
			t.Fatal("Skip accepted a line encoding/json rejects")
		}
		decodePoint(&d, string(line))
		d.Type(line)
	})
}

func TestBoolAndUint64(t *testing.T) {
	var d Dec
	for _, c := range []struct {
		lit  string
		want bool
	}{{"true", true}, {"false", false}, {" true ", true}} {
		d.Reset([]byte(c.lit))
		if got := d.Bool(); got != c.want || d.End() != nil {
			t.Errorf("Bool(%s) = %v (%v)", c.lit, got, d.End())
		}
	}
	for _, c := range []struct {
		lit  string
		want uint64
	}{{"0", 0}, {"42", 42}, {"18446744073709551615", math.MaxUint64}} {
		d.Reset([]byte(c.lit))
		if got := d.Uint64(); got != c.want || d.End() != nil {
			t.Errorf("Uint64(%s) = %v (%v)", c.lit, got, d.End())
		}
	}
	for _, lit := range []string{`null`, `"true"`, `1`, `tru`, `True`, `falsey`} {
		d.Reset([]byte(lit))
		if d.Bool(); d.End() == nil {
			t.Errorf("Bool accepted %s", lit)
		}
	}
	for _, lit := range []string{`null`, `"1"`, `-1`, `-0`, `1.0`, `1e2`, `18446744073709551616`, `true`} {
		d.Reset([]byte(lit))
		if d.Uint64(); d.End() == nil {
			t.Errorf("Uint64 accepted %s", lit)
		}
	}
}

// errWriter fails every write after the first n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriter: the header, then one line per Line call; the first write
// error sticks and Close reports it.
func TestWriter(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b, "repro.test.v1")
	w.Line([]byte(`{"e":"a"}`))
	w.Line([]byte(`{"e":"b"}`))
	if err := w.Close(); err != nil || b.String() != `{"schema":"repro.test.v1"}`+"\n"+`{"e":"a"}`+"\n"+`{"e":"b"}`+"\n" {
		t.Fatalf("wrote %q, %v", b.String(), err)
	}
	ew := &errWriter{n: 10}
	w = NewWriter(ew, "repro.test.v1")
	line := []byte(strings.Repeat("x", 5000)) // past the buffer: written through at once
	w.Line(line)
	if err := w.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close after a failed write = %v", err)
	}
	w.Line(line)
	if err := w.Close(); err == nil {
		t.Fatal("the write error did not stick")
	}
}

// TestScan: the header check, blank lines skipped, every error naming its
// line — the callback's, a syntax error's, the line reader's own.
func TestScan(t *testing.T) {
	const hdr = `{"schema":"repro.test.v1"}` + "\n"
	var got []string
	collect := func(d *Dec, typ string) error {
		got = append(got, typ)
		d.Skip()
		return d.End()
	}
	if err := Scan(strings.NewReader(hdr+`{"e":"a"}`+"\n\n"+`{"x":1,"e":"b"}`+"\n"+`{}`), "test: log", "repro.test.v1", collect); err != nil ||
		strings.Join(got, ",") != "a,b," {
		t.Fatalf("Scan read types %q, %v", got, err)
	}
	// Without a schema every line goes to the callback, the header included.
	got = nil
	if err := Scan(strings.NewReader(hdr+`{"e":"a"}`), "test: log", "", collect); err != nil || strings.Join(got, ",") != ",a" {
		t.Fatalf("Scan without a schema read %q, %v", got, err)
	}
	for _, c := range []struct{ in, want string }{
		{"", "test: log is empty (missing schema header)"},
		{`{"schema":"repro.test.v9"}`, `test: log line 1: schema "repro.test.v9", want "repro.test.v1"`},
		{`{"schema":`, "test: log line 1: bad header: offset 10: unexpected end of line"},
		{hdr + "\n" + `{"e":"a"}` + "\n" + `{"e":1}`, "test: log line 4: offset 5: want string"},
		{hdr + `{"e":"a","x":}`, "test: log line 2: offset 13: want number"},
		{hdr + `{"e":"stop"}`, "test: log line 2: stop"},
		{hdr + `{"e":"` + strings.Repeat("x", 1<<20) + `"}`, "test: log line 2: bufio.Scanner: token too long"},
	} {
		err := Scan(strings.NewReader(c.in), "test: log", "repro.test.v1", func(d *Dec, typ string) error {
			if typ == "stop" {
				return errors.New("stop")
			}
			d.Skip()
			return d.End()
		})
		if err == nil || err.Error() != c.want {
			t.Errorf("Scan(%.40q) = %v, want %s", c.in, err, c.want)
		}
	}
}
