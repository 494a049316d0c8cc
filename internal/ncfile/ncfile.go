// Package ncfile is the high-level scientific I/O layer of the stack — the
// role PnetCDF plays in the paper. A dataset is a self-describing striped
// file holding N-dimensional typed variables; access is by hyperslab
// (start/count per dimension), independently or collectively. The logical
// metadata kept here (variable dims, element type, file offset) is exactly
// what the collective-computing runtime uses to reconstruct logical
// coordinates from raw byte ranges (the paper's Figure 8).
package ncfile

import (
	"encoding/binary"
	"fmt"

	"repro/internal/adio"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// Type is a variable's element type.
type Type uint8

// Supported element types.
const (
	Float32 Type = iota
	Float64
	Int32
	Int64
)

// Size returns the element size in bytes.
func (t Type) Size() int64 {
	switch t {
	case Float32, Int32:
		return 4
	default:
		return 8
	}
}

func (t Type) String() string {
	switch t {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	}
	return "invalid"
}

// Var describes one variable.
type Var struct {
	Name   string
	Type   Type
	Dims   []int64
	Offset int64 // absolute file offset of the variable's first element
}

// NumElems returns the variable's total element count.
func (v *Var) NumElems() int64 { return layout.NumElemsOf(v.Dims) }

// Bytes returns the variable's total byte size.
func (v *Var) Bytes() int64 { return v.NumElems() * v.Type.Size() }

// Schema declares the variables and attributes of a dataset before
// creation.
type Schema struct {
	vars        []Var
	globalAttrs []Attr
	varAttrs    map[int][]Attr
}

// AddVar appends a variable and returns its id. Dims are slowest-first.
func (s *Schema) AddVar(name string, t Type, dims []int64) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("ncfile: empty variable name")
	}
	if len(dims) == 0 {
		return 0, fmt.Errorf("ncfile: variable %q has no dimensions", name)
	}
	for d, n := range dims {
		if n <= 0 {
			return 0, fmt.Errorf("ncfile: variable %q dim %d = %d", name, d, n)
		}
	}
	for _, v := range s.vars {
		if v.Name == name {
			return 0, fmt.Errorf("ncfile: duplicate variable %q", name)
		}
	}
	s.vars = append(s.vars, Var{Name: name, Type: t, Dims: append([]int64(nil), dims...)})
	return len(s.vars) - 1, nil
}

// headerAlign pads the header and each variable to this boundary.
const headerAlign = 4096

const magic = 0x43434e43 // "CCNC"

// Layout assigns file offsets to the schema's variables and returns the
// total file size. Variables are laid out sequentially, page-aligned.
func (s *Schema) Layout() int64 {
	off := int64(headerAlign) // header page(s)
	hdr := s.headerBytes()
	for hdr > off {
		off += headerAlign
	}
	for i := range s.vars {
		s.vars[i].Offset = off
		off += s.vars[i].Bytes()
		if rem := off % headerAlign; rem != 0 {
			off += headerAlign - rem
		}
	}
	return off
}

func (s *Schema) headerBytes() int64 {
	n := int64(16) // magic + nvars + nattrs + reserved
	for _, v := range s.vars {
		n += 8 + int64(len(v.Name)) + 2 + 2 + 8 + int64(len(v.Dims))*8 + 8
	}
	for _, a := range s.globalAttrs {
		n += attrBytes(a)
	}
	for id := range s.vars {
		for _, a := range s.varAttrs[id] {
			n += attrBytes(a)
		}
	}
	return n
}

// encodeHeader serializes the schema into a page-aligned header block.
func (s *Schema) encodeHeader() []byte {
	size := s.headerBytes()
	pages := (size + headerAlign - 1) / headerAlign
	buf := make([]byte, pages*headerAlign)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], magic)
	le.PutUint32(buf[4:], uint32(len(s.vars)))
	le.PutUint32(buf[8:], uint32(len(s.globalAttrs)))
	pos := 16
	for id, v := range s.vars {
		le.PutUint64(buf[pos:], uint64(len(v.Name)))
		pos += 8
		copy(buf[pos:], v.Name)
		pos += len(v.Name)
		le.PutUint16(buf[pos:], uint16(v.Type))
		pos += 2
		le.PutUint16(buf[pos:], uint16(len(v.Dims)))
		pos += 2
		le.PutUint64(buf[pos:], uint64(v.Offset))
		pos += 8
		for _, d := range v.Dims {
			le.PutUint64(buf[pos:], uint64(d))
			pos += 8
		}
		le.PutUint64(buf[pos:], uint64(len(s.varAttrs[id]))) // attr count
		pos += 8
	}
	for _, a := range s.globalAttrs {
		pos = encodeAttr(buf, pos, a)
	}
	for id := range s.vars {
		for _, a := range s.varAttrs[id] {
			pos = encodeAttr(buf, pos, a)
		}
	}
	return buf
}

// decodeHeader parses a header block back into variables and attributes.
func decodeHeader(buf []byte) ([]Var, []Attr, map[int][]Attr, error) {
	le := binary.LittleEndian
	if len(buf) < 16 || le.Uint32(buf[0:]) != magic {
		return nil, nil, nil, fmt.Errorf("ncfile: bad magic")
	}
	nvars := int(le.Uint32(buf[4:]))
	nglobal := int(le.Uint32(buf[8:]))
	pos := 16
	// Counts come off the wire; cap the preallocation so a corrupt header
	// cannot demand gigabytes before the per-entry bounds checks reject it.
	prealloc := nvars
	if prealloc > 1024 {
		prealloc = 1024
	}
	vars := make([]Var, 0, prealloc)
	attrCounts := make([]int, 0, prealloc)
	for i := 0; i < nvars; i++ {
		if pos+8 > len(buf) {
			return nil, nil, nil, fmt.Errorf("ncfile: truncated header")
		}
		nameLen := int(le.Uint64(buf[pos:]))
		pos += 8
		if nameLen < 0 || nameLen > 1<<16 || pos+nameLen+12 > len(buf) {
			return nil, nil, nil, fmt.Errorf("ncfile: corrupt variable %d", i)
		}
		v := Var{Name: string(buf[pos : pos+nameLen])}
		pos += nameLen
		v.Type = Type(le.Uint16(buf[pos:]))
		pos += 2
		ndims := int(le.Uint16(buf[pos:]))
		pos += 2
		v.Offset = int64(le.Uint64(buf[pos:]))
		pos += 8
		if pos+ndims*8+8 > len(buf) {
			return nil, nil, nil, fmt.Errorf("ncfile: corrupt dims of variable %d", i)
		}
		for d := 0; d < ndims; d++ {
			v.Dims = append(v.Dims, int64(le.Uint64(buf[pos:])))
			pos += 8
		}
		na := int(le.Uint64(buf[pos:]))
		pos += 8
		if na < 0 || na > 1<<12 {
			return nil, nil, nil, fmt.Errorf("ncfile: implausible attr count on variable %d", i)
		}
		attrCounts = append(attrCounts, na)
		vars = append(vars, v)
	}
	var global []Attr
	for i := 0; i < nglobal; i++ {
		a, np, err := decodeAttr(buf, pos)
		if err != nil {
			return nil, nil, nil, err
		}
		global = append(global, a)
		pos = np
	}
	varAttrs := make(map[int][]Attr)
	for id, na := range attrCounts {
		for i := 0; i < na; i++ {
			a, np, err := decodeAttr(buf, pos)
			if err != nil {
				return nil, nil, nil, err
			}
			varAttrs[id] = append(varAttrs[id], a)
			pos = np
		}
	}
	return vars, global, varAttrs, nil
}

// Dataset is an open self-describing file.
type Dataset struct {
	file        *pfs.File
	vars        []Var
	name        map[string]int
	globalAttrs []Attr
	varAttrs    map[int][]Attr
	synth       *synth // non-nil for generator-backed datasets (SynthDatasetGen)
	// decoded is the scratch GetVaraAllScratch returns its values in; shared
	// by every rank reading this dataset, for the reason synth's scratch is.
	decoded []float64
}

// Create lays out the schema, writes the header (for mem-backed files), and
// returns an open dataset over the given backend. For synthetic backends the
// header is not written — the schema itself is authoritative — but offsets
// are identical, so generators can fill variable regions by offset.
func Create(fs *pfs.FS, name string, s *Schema, backend pfs.Backend,
	stripeCount int, stripeSize int64, firstOST int) (*Dataset, error) {
	if len(s.vars) == 0 {
		return nil, fmt.Errorf("ncfile: schema has no variables")
	}
	s.Layout()
	f := fs.Create(name, backend, stripeCount, stripeSize, firstOST)
	if _, ok := backend.(*pfs.MemBackend); ok {
		backend.WriteAt(s.encodeHeader(), 0)
	}
	return newDataset(f, s.vars, s.globalAttrs, s.varAttrs)
}

// Open reads the header from an existing mem-backed dataset file.
func Open(f *pfs.File, cl *pfs.Client) (*Dataset, error) {
	hdr := make([]byte, headerAlign)
	cl.Read(f, hdr, 0)
	vars, global, varAttrs, err := decodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	return newDataset(f, vars, global, varAttrs)
}

func newDataset(f *pfs.File, vars []Var, global []Attr, varAttrs map[int][]Attr) (*Dataset, error) {
	ds := &Dataset{file: f, vars: vars, name: make(map[string]int, len(vars)),
		globalAttrs: global, varAttrs: varAttrs}
	for i, v := range vars {
		ds.name[v.Name] = i
	}
	return ds, nil
}

// File returns the underlying striped file.
func (ds *Dataset) File() *pfs.File { return ds.file }

// NumVars returns the number of variables.
func (ds *Dataset) NumVars() int { return len(ds.vars) }

// Var returns variable metadata by id.
func (ds *Dataset) Var(id int) (*Var, error) {
	if id < 0 || id >= len(ds.vars) {
		return nil, fmt.Errorf("ncfile: variable id %d out of range", id)
	}
	return &ds.vars[id], nil
}

// VarByName returns a variable's id, or an error.
func (ds *Dataset) VarByName(name string) (int, error) {
	if id, ok := ds.name[name]; ok {
		return id, nil
	}
	return 0, fmt.Errorf("ncfile: no variable %q", name)
}

// ByteRuns flattens a hyperslab of variable id into absolute file byte runs.
func (ds *Dataset) ByteRuns(id int, slab layout.Slab) ([]layout.Run, error) {
	_, runs, err := ds.slabRuns(id, slab)
	return runs, err
}

// slabRuns flattens a hyperslab of variable id into runs of linear element
// indices and the absolute file byte runs those elements occupy.
func (ds *Dataset) slabRuns(id int, slab layout.Slab) (elems, bytes []layout.Run, err error) {
	v, err := ds.Var(id)
	if err != nil {
		return nil, nil, err
	}
	if err := layout.Validate(v.Dims, slab); err != nil {
		return nil, nil, err
	}
	elems = layout.Flatten(v.Dims, slab)
	sz := v.Type.Size()
	bytes = make([]layout.Run, len(elems))
	for i, r := range elems {
		bytes[i] = layout.Run{Offset: v.Offset + r.Offset*sz, Length: r.Length * sz}
	}
	return elems, bytes, nil
}

// DecodeValues converts raw little-endian bytes of the variable's type into
// float64 values (the uniform numeric type the analysis ops consume).
func DecodeValues(t Type, raw []byte, out []float64) []float64 {
	n := len(raw) / int(t.Size())
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	decode(t, out, raw)
	return out
}

// EncodeValues converts float64 values into the variable's raw type.
func EncodeValues(t Type, vals []float64) []byte {
	raw := make([]byte, len(vals)*int(t.Size()))
	encode(t, raw, vals)
	return raw
}

// GetVaraAll collectively reads the hyperslab of variable id into float64
// values — the ncmpi_get_vara_<type>_all of the paper's Figure 5. Every
// member of c must call it. aggrs and p configure the two-phase protocol.
func (ds *Dataset) GetVaraAll(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client,
	id int, slab layout.Slab, aggrs []int, p adio.Params) ([]float64, error) {
	elems, raw, err := ds.readVaraAll(r, c, cl, id, slab, aggrs, p)
	if err != nil {
		return nil, err
	}
	return ds.Values(id, elems, raw, nil), nil
}

// GetVaraAllScratch is GetVaraAll for a caller that consumes the values
// before it next yields to the simulation kernel (any Compute, Sys, message
// or I/O call): the returned slice is a per-dataset scratch that the next
// rank to finish reading the dataset overwrites. In exchange a collective
// read produces its values in one buffer instead of allocating 8 bytes per
// element on every rank.
func (ds *Dataset) GetVaraAllScratch(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client,
	id int, slab layout.Slab, aggrs []int, p adio.Params) ([]float64, error) {
	elems, raw, err := ds.readVaraAll(r, c, cl, id, slab, aggrs, p)
	if err != nil {
		return nil, err
	}
	// The scratch is picked up here, after the read's last yield.
	ds.decoded = ds.Values(id, elems, raw, ds.decoded)
	return ds.decoded, nil
}

// readVaraAll is readVara with the two-phase collective read.
func (ds *Dataset) readVaraAll(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client,
	id int, slab layout.Slab, aggrs []int, p adio.Params) ([]layout.Run, []byte, error) {
	return ds.readVara(id, slab, func(rq adio.Request) error {
		return adio.CollectiveRead(r, c, cl, ds.file, rq, aggrs, p)
	})
}

// readVara performs the hyperslab's read with the given protocol and returns
// what Values needs to turn it into values: the slab's element runs and, from
// a dataset that holds bytes, the bytes read, concatenated in file order. A
// generator-backed dataset is charged for the read and delivers no bytes.
func (ds *Dataset) readVara(id int, slab layout.Slab, read func(adio.Request) error) ([]layout.Run, []byte, error) {
	elems, runs, err := ds.slabRuns(id, slab)
	if err != nil {
		return nil, nil, err
	}
	rq := adio.Request{Runs: runs, ChargeOnly: ds.Synthetic()}
	if !rq.ChargeOnly {
		rq.Buf = make([]byte, layout.TotalLength(runs))
	}
	if err := read(rq); err != nil {
		return nil, nil, err
	}
	return elems, rq.Buf, nil
}

// GetVara independently reads the hyperslab (with data sieving).
func (ds *Dataset) GetVara(cl *pfs.Client, id int, slab layout.Slab, p adio.Params) ([]float64, error) {
	elems, raw, err := ds.readVara(id, slab, func(rq adio.Request) error {
		return adio.IndependentRead(cl, ds.file, rq, p)
	})
	if err != nil {
		return nil, err
	}
	return ds.Values(id, elems, raw, nil), nil
}

// PutVaraAll collectively writes vals into the hyperslab of variable id.
func (ds *Dataset) PutVaraAll(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client,
	id int, slab layout.Slab, vals []float64, aggrs []int, p adio.Params) error {
	v, err := ds.Var(id)
	if err != nil {
		return err
	}
	if int64(len(vals)) != slab.NumElems() {
		return fmt.Errorf("ncfile: %d values for %d-element slab", len(vals), slab.NumElems())
	}
	runs, err := ds.ByteRuns(id, slab)
	if err != nil {
		return err
	}
	return adio.CollectiveWrite(r, c, cl, ds.file,
		adio.Request{Runs: runs, Buf: EncodeValues(v.Type, vals), Donated: true}, aggrs, p)
}

// PutVara independently writes vals into the hyperslab.
func (ds *Dataset) PutVara(cl *pfs.Client, id int, slab layout.Slab, vals []float64, p adio.Params) error {
	v, err := ds.Var(id)
	if err != nil {
		return err
	}
	if int64(len(vals)) != slab.NumElems() {
		return fmt.Errorf("ncfile: %d values for %d-element slab", len(vals), slab.NumElems())
	}
	runs, err := ds.ByteRuns(id, slab)
	if err != nil {
		return err
	}
	return adio.IndependentWrite(cl, ds.file,
		adio.Request{Runs: runs, Buf: EncodeValues(v.Type, vals)}, p)
}
