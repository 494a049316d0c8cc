// Package ncfile is the high-level scientific I/O layer of the stack — the
// role PnetCDF plays in the paper. A dataset is a striped file holding
// N-dimensional typed variables, described by an in-memory schema; access is
// by hyperslab (start/count per dimension): collective reads and writes,
// independent reads. The logical metadata kept here (variable dims, element
// type, file offset) is exactly what the collective-computing runtime uses to
// reconstruct logical coordinates from raw byte ranges (the paper's
// Figure 8). The schema is authoritative: nothing is written to or read
// from the file but variable data.
package ncfile

import (
	"fmt"

	"repro/internal/adio"
	"repro/internal/host"
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

// Schema declares the variables of a dataset before creation.
type Schema struct {
	vars []Var
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

// pageSize aligns every variable's offset.
const pageSize = 4096

// Layout assigns file offsets to the schema's variables and returns the
// total file size. Variables are laid out sequentially, page-aligned, after
// a first page that stays empty. That page held a file header when the
// format had one; keeping it reserved keeps every variable at the offset it
// had then, and so on the stripes and OSTs every recorded run charged it to.
func (s *Schema) Layout() int64 {
	off := int64(pageSize)
	for i := range s.vars {
		s.vars[i].Offset = off
		off += s.vars[i].Bytes()
		if rem := off % pageSize; rem != 0 {
			off += pageSize - rem
		}
	}
	return off
}

// Dataset is an open file and the schema describing it.
type Dataset struct {
	file  *pfs.File
	vars  []Var
	synth *synth // non-nil for generator-backed datasets (SynthDatasetGen)
	// decoded is the scratch FoldVara makes its values in, work the host
	// workers' scratch, and req the request they are working on. All are
	// shared by every rank reading this dataset: a dataset lives in one FS
	// and so one sim.Env, whose kernel runs one process at a time, and no
	// reader yields to the kernel between filling a scratch and consuming it.
	decoded []float64
	work    host.Pool[Worker]
	req     unitReq
	unit    func(*Worker, int) // runUnit, bound once (see run)
}

// Worker is one host worker's scratch for producing a dataset's values and
// the logical subsets they fill: see RunWorkers.
type Worker struct {
	coords []int64   // the generator's row walk
	vals   []float64 // what WorkerValues returns
	// Slabs is the worker's slab list: the collective-computing map cuts
	// its pieces into logical subsets here (Fig. 8).
	Slabs layout.SlabScratch
}

// RunWorkers calls body(w, i) once for every i in [0, n) on the host's cores,
// the way host.Pool.Run does (elems is the work in elements), with w the
// dataset's scratch of the worker making the call. body must not yield to
// the simulation kernel, nor call Values or FoldVara, which use the same
// workers: WorkerValues is its way to the dataset's values.
func (ds *Dataset) RunWorkers(n int, elems int64, body func(w *Worker, i int)) {
	ds.work.Run(n, elems, body)
}

// Create lays out the schema and returns an open dataset over the given
// backend.
func Create(fs *pfs.FS, name string, s *Schema, backend pfs.Backend,
	stripeCount int, stripeSize int64, firstOST int) (*Dataset, error) {
	if len(s.vars) == 0 {
		return nil, fmt.Errorf("ncfile: schema has no variables")
	}
	s.Layout()
	return &Dataset{file: fs.Create(name, backend, stripeCount, stripeSize, firstOST), vars: s.vars}, nil
}

// File returns the underlying striped file.
func (ds *Dataset) File() *pfs.File { return ds.file }

// Var returns variable metadata by id.
func (ds *Dataset) Var(id int) (*Var, error) {
	if id < 0 || id >= len(ds.vars) {
		return nil, fmt.Errorf("ncfile: variable id %d out of range", id)
	}
	return &ds.vars[id], nil
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
	out = resize(out, int64(len(raw))/t.Size())
	decode(t, out, raw)
	return out
}

// resize returns out with length n, reallocated only when its capacity is
// short of n.
func resize(out []float64, n int64) []float64 {
	if int64(cap(out)) < n {
		return make([]float64, n)
	}
	return out[:n]
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
	elems, raw, err := ds.readVara(id, slab, func(rq adio.Request) error {
		return adio.CollectiveRead(r, c, cl, ds.file, rq, aggrs, p)
	})
	if err != nil {
		return nil, err
	}
	return ds.Values(id, elems, raw, nil), nil
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
