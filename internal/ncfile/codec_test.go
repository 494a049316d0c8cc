package ncfile

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// scalarEncode and scalarDecode are the per-element loops the block codec
// replaced, kept verbatim as its oracle: one bounds-checked 4- or 8-byte
// access per element, the same conversion expressions.
func scalarEncode(t Type, vals []float64) []byte {
	raw := make([]byte, len(vals)*int(t.Size()))
	le := binary.LittleEndian
	switch t {
	case Float32:
		for i, v := range vals {
			le.PutUint32(raw[i*4:], math.Float32bits(float32(v)))
		}
	case Float64:
		for i, v := range vals {
			le.PutUint64(raw[i*8:], math.Float64bits(v))
		}
	case Int32:
		for i, v := range vals {
			le.PutUint32(raw[i*4:], uint32(int32(v)))
		}
	case Int64:
		for i, v := range vals {
			le.PutUint64(raw[i*8:], uint64(int64(v)))
		}
	}
	return raw
}

func scalarDecode(t Type, raw []byte) []float64 {
	n := len(raw) / int(t.Size())
	out := make([]float64, n)
	le := binary.LittleEndian
	switch t {
	case Float32:
		for i := 0; i < n; i++ {
			out[i] = float64(math.Float32frombits(le.Uint32(raw[i*4:])))
		}
	case Float64:
		for i := 0; i < n; i++ {
			out[i] = math.Float64frombits(le.Uint64(raw[i*8:]))
		}
	case Int32:
		for i := 0; i < n; i++ {
			out[i] = float64(int32(le.Uint32(raw[i*4:])))
		}
	case Int64:
		for i := 0; i < n; i++ {
			out[i] = float64(int64(le.Uint64(raw[i*8:])))
		}
	}
	return out
}

var allTypes = []Type{Float32, Float64, Int32, Int64}

// checkCodecMatchesScalar holds the three kernels to the scalar loops for one
// input: encode's bytes, decode's values (of the encoded bytes and of rawIn,
// arbitrary bytes such as signalling-NaN patterns), and roundTrip against
// decode(encode(x)) — all to the bit. dst and out are dirty and one element
// longer than needed, so a kernel that writes short or long is caught.
func checkCodecMatchesScalar(t *testing.T, ty Type, vals []float64, rawIn []byte) {
	t.Helper()
	sz := int(ty.Size())
	want := scalarEncode(ty, vals)
	dst := bytes.Repeat([]byte{0xAA}, len(want)+sz)
	encode(ty, dst[:len(want)], vals)
	if !bytes.Equal(dst[:len(want)], want) {
		t.Fatalf("%v encode(%v):\n got %x\nwant %x", ty, vals, dst[:len(want)], want)
	}
	if !bytes.Equal(dst[len(want):], bytes.Repeat([]byte{0xAA}, sz)) {
		t.Fatalf("%v encode of %d values wrote past its %d bytes", ty, len(vals), len(want))
	}
	if got := EncodeValues(ty, vals); !bytes.Equal(got, want) {
		t.Fatalf("%v EncodeValues(%v) = %x, want %x", ty, vals, got, want)
	}
	sameValues := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%v %s: %d values, want %d", ty, what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v %s element %d of %d: %v (%#x), want %v (%#x)", ty, what, i, len(want),
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for _, raw := range [][]byte{want, rawIn[:len(rawIn)/sz*sz]} {
		wantVals := scalarDecode(ty, raw)
		out := make([]float64, len(wantVals)+1)
		for i := range out {
			out[i] = -12345
		}
		decode(ty, out[:len(wantVals)], raw)
		sameValues("decode", out[:len(wantVals)], wantVals)
		if out[len(wantVals)] != -12345 {
			t.Fatalf("%v decode of %d elements wrote past them", ty, len(wantVals))
		}
		sameValues("DecodeValues", DecodeValues(ty, raw, nil), wantVals)
	}
	rt := append([]float64(nil), vals...)
	roundTrip(ty, rt)
	sameValues("roundTrip", rt, scalarDecode(ty, want))
}

// awkward holds the values where a conversion could go wrong — NaNs with
// payloads (quiet and signalling, either sign), infinities, signed zeros,
// denormals of both widths, magnitudes beyond float32 and beyond the integer
// types.
var awkward = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -1e-3, 1.0000000596046448,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000abcdef), math.Float64frombits(0xfff0000000000001),
	math.Float64frombits(0x7ff4000000000000), float64(math.Float32frombits(0x7fa00001)),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310,
	math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32 / 3, 1e-40, -1e-46,
	math.MaxFloat32, -math.MaxFloat32, math.MaxFloat32 * 1.0000001, 1e39, math.MaxFloat64,
	math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1, 2147483647.9, -2147483648.9,
	4294967296, 1e10, -1e10, 9223372036854775807, 9223372036854775808, -9223372036854775808, 1e19, -1e19, 1e300,
	-0.9, 0.9, 1.5, -1.5, 16777217, -16777217,
}

// TestCodecMatchesScalarTable: the awkward values at every length from 0 to
// 9 and every alignment within the 4-element blocks.
func TestCodecMatchesScalarTable(t *testing.T) {
	// Raw bytes for decode alone: every byte value appears, so float32 NaN
	// payloads and sign bits that encode never produces are covered.
	rawIn := make([]byte, 9*8)
	for _, ty := range allTypes {
		for n := 0; n <= 9; n++ {
			for at := 0; at+n <= len(awkward)+8; at++ {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = awkward[(at+i)%len(awkward)]
				}
				for i := range rawIn {
					rawIn[i] = byte(mix(uint64(at*1000+n*100+i)) >> 13)
				}
				// Plant float32/float64 NaN bit patterns at a moving slot.
				binary.LittleEndian.PutUint32(rawIn[(at%4)*4:], 0x7fa00001)
				binary.LittleEndian.PutUint32(rawIn[16+(at%4)*4:], 0xffc12345)
				binary.LittleEndian.PutUint64(rawIn[32+(at%4)*8:], 0x7ff4000000000001)
				checkCodecMatchesScalar(t, ty, vals, rawIn[:n*8])
			}
		}
	}
}

// TestRoundTripMatchesScalarLoop: the unrolled roundTrip gives what the
// one-element-at-a-time loop gives, bit for bit, for each type, at every
// length from 0 to 9 from every offset into the awkward values (so each
// value meets each of the four unrolled slots and the tail), and over a long
// row of arbitrary bit patterns whose length leaves a tail of three.
func TestRoundTripMatchesScalarLoop(t *testing.T) {
	scalar := func(ty Type, vals []float64) {
		for i, v := range vals {
			switch ty {
			case Float32:
				vals[i] = float64(float32(v))
			case Int32:
				vals[i] = float64(int32(v))
			case Int64:
				vals[i] = float64(int64(v))
			}
		}
	}
	long := make([]float64, 4*1000+3)
	for i := range long {
		long[i] = math.Float64frombits(mix(uint64(i)))
		if i%3 == 0 {
			long[i] = awkward[i%len(awkward)]
		}
	}
	var rows [][]float64
	for n := 0; n <= 9; n++ {
		for at := range awkward {
			row := make([]float64, n)
			for i := range row {
				row[i] = awkward[(at+i)%len(awkward)]
			}
			rows = append(rows, row)
		}
	}
	rows = append(rows, long)
	for _, ty := range allTypes {
		for _, row := range rows {
			got, want := append([]float64(nil), row...), append([]float64(nil), row...)
			roundTrip(ty, got)
			scalar(ty, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v roundTrip of %d values: element %d (%v) is %#x, the scalar loop gives %#x",
						ty, len(row), i, row[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// FuzzCodecMatchesScalar feeds the kernels arbitrary bit patterns, as values
// (every 8 bytes a float64) and as raw element bytes, for all four types. Its
// seed corpus runs under plain go test.
func FuzzCodecMatchesScalar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xff}, 72))
	f.Add(bytes.Repeat([]byte{0x00, 0x00, 0xa0, 0x7f}, 18)) // float32 signalling NaNs
	f.Add(bytes.Repeat([]byte{1, 0, 0, 0, 0, 0, 0xf4, 0x7f}, 9))
	seeded := make([]byte, 8*37)
	for i := range seeded {
		seeded[i] = byte(mix(uint64(i)) >> 7)
	}
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		for _, ty := range allTypes {
			checkCodecMatchesScalar(t, ty, vals, data)
		}
	})
}

// benchCodecInputs is 1 Mi float32 elements; SetBytes counts elements, so the
// benchmarks' MB/s column reads Melem/s, the unit of the ledger's codec probes.
func benchCodecInputs() ([]float64, []byte) {
	const n = 1 << 20
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(mix(uint64(i))%200001)/7 - 10000
	}
	return vals, scalarEncode(Float32, vals)
}

func BenchmarkDecodeFloat32(b *testing.B) {
	vals, raw := benchCodecInputs()
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals = DecodeValues(Float32, raw, vals)
	}
}

func BenchmarkEncodeFloat32(b *testing.B) {
	vals, raw := benchCodecInputs()
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw = EncodeValues(Float32, vals)
	}
	_ = raw
}
