package ncfile

import (
	"encoding/binary"
	"math"
)

// The block codec: every conversion between float64 values and a variable's
// little-endian element bytes goes through the three kernels below, so the
// per-type conversion expressions exist once. The 4-byte types move four
// elements per iteration through two 64-bit words and the 8-byte types four
// words; the fixed-size three-index sub-slices let the compiler drop the
// per-element bounds checks. A scalar tail handles the last n%4 elements.

// encode stores vals as consecutive little-endian elements of type t in
// dst[:len(vals)*t.Size()].
func encode(t Type, dst []byte, vals []float64) {
	le := binary.LittleEndian
	n := len(vals)
	i := 0
	switch t {
	case Float32:
		for ; i+4 <= n; i += 4 {
			v := vals[i : i+4 : i+4]
			b := dst[i*4 : i*4+16 : i*4+16]
			le.PutUint64(b[0:8], uint64(math.Float32bits(float32(v[0])))|uint64(math.Float32bits(float32(v[1])))<<32)
			le.PutUint64(b[8:16], uint64(math.Float32bits(float32(v[2])))|uint64(math.Float32bits(float32(v[3])))<<32)
		}
		for ; i < n; i++ {
			le.PutUint32(dst[i*4:], math.Float32bits(float32(vals[i])))
		}
	case Float64:
		for ; i+4 <= n; i += 4 {
			v := vals[i : i+4 : i+4]
			b := dst[i*8 : i*8+32 : i*8+32]
			le.PutUint64(b[0:8], math.Float64bits(v[0]))
			le.PutUint64(b[8:16], math.Float64bits(v[1]))
			le.PutUint64(b[16:24], math.Float64bits(v[2]))
			le.PutUint64(b[24:32], math.Float64bits(v[3]))
		}
		for ; i < n; i++ {
			le.PutUint64(dst[i*8:], math.Float64bits(vals[i]))
		}
	case Int32:
		for ; i+4 <= n; i += 4 {
			v := vals[i : i+4 : i+4]
			b := dst[i*4 : i*4+16 : i*4+16]
			le.PutUint64(b[0:8], uint64(uint32(int32(v[0])))|uint64(uint32(int32(v[1])))<<32)
			le.PutUint64(b[8:16], uint64(uint32(int32(v[2])))|uint64(uint32(int32(v[3])))<<32)
		}
		for ; i < n; i++ {
			le.PutUint32(dst[i*4:], uint32(int32(vals[i])))
		}
	case Int64:
		for ; i+4 <= n; i += 4 {
			v := vals[i : i+4 : i+4]
			b := dst[i*8 : i*8+32 : i*8+32]
			le.PutUint64(b[0:8], uint64(int64(v[0])))
			le.PutUint64(b[8:16], uint64(int64(v[1])))
			le.PutUint64(b[16:24], uint64(int64(v[2])))
			le.PutUint64(b[24:32], uint64(int64(v[3])))
		}
		for ; i < n; i++ {
			le.PutUint64(dst[i*8:], uint64(int64(vals[i])))
		}
	}
}

// decode fills out with the len(out) consecutive little-endian elements of
// type t at the start of raw.
func decode(t Type, out []float64, raw []byte) {
	le := binary.LittleEndian
	n := len(out)
	i := 0
	switch t {
	case Float32:
		for ; i+4 <= n; i += 4 {
			b := raw[i*4 : i*4+16 : i*4+16]
			o := out[i : i+4 : i+4]
			lo, hi := le.Uint64(b[0:8]), le.Uint64(b[8:16])
			o[0] = float64(math.Float32frombits(uint32(lo)))
			o[1] = float64(math.Float32frombits(uint32(lo >> 32)))
			o[2] = float64(math.Float32frombits(uint32(hi)))
			o[3] = float64(math.Float32frombits(uint32(hi >> 32)))
		}
		for ; i < n; i++ {
			out[i] = float64(math.Float32frombits(le.Uint32(raw[i*4:])))
		}
	case Float64:
		for ; i+4 <= n; i += 4 {
			b := raw[i*8 : i*8+32 : i*8+32]
			o := out[i : i+4 : i+4]
			o[0] = math.Float64frombits(le.Uint64(b[0:8]))
			o[1] = math.Float64frombits(le.Uint64(b[8:16]))
			o[2] = math.Float64frombits(le.Uint64(b[16:24]))
			o[3] = math.Float64frombits(le.Uint64(b[24:32]))
		}
		for ; i < n; i++ {
			out[i] = math.Float64frombits(le.Uint64(raw[i*8:]))
		}
	case Int32:
		for ; i+4 <= n; i += 4 {
			b := raw[i*4 : i*4+16 : i*4+16]
			o := out[i : i+4 : i+4]
			lo, hi := le.Uint64(b[0:8]), le.Uint64(b[8:16])
			o[0] = float64(int32(uint32(lo)))
			o[1] = float64(int32(uint32(lo >> 32)))
			o[2] = float64(int32(uint32(hi)))
			o[3] = float64(int32(uint32(hi >> 32)))
		}
		for ; i < n; i++ {
			out[i] = float64(int32(le.Uint32(raw[i*4:])))
		}
	case Int64:
		for ; i+4 <= n; i += 4 {
			b := raw[i*8 : i*8+32 : i*8+32]
			o := out[i : i+4 : i+4]
			o[0] = float64(int64(le.Uint64(b[0:8])))
			o[1] = float64(int64(le.Uint64(b[8:16])))
			o[2] = float64(int64(le.Uint64(b[16:24])))
			o[3] = float64(int64(le.Uint64(b[24:32])))
		}
		for ; i < n; i++ {
			out[i] = float64(int64(le.Uint64(raw[i*8:])))
		}
	}
}

// Float32Round is roundTrip of one Float32 value: what decode yields for
// encode's bytes of v. The generators' scans (Scanner) round with it, so the
// conversion is written here and nowhere else.
func Float32Round(v float64) float64 { return float64(float32(v)) }

// roundTrip replaces each value by what decode yields for encode's bytes of
// it: the same conversions with the little-endian bit moves between them,
// which change nothing, left out.
func roundTrip(t Type, vals []float64) {
	switch t {
	case Float32:
		for i, v := range vals {
			vals[i] = Float32Round(v)
		}
	case Int32:
		for i, v := range vals {
			vals[i] = float64(int32(v))
		}
	case Int64:
		for i, v := range vals {
			vals[i] = float64(int64(v))
		}
	}
}
