package ncfile

import (
	"repro/internal/adio"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// FoldVara reads the hyperslab of variable id and then runs body beside the
// simulation. The read is independent, with data sieving, when independent
// is set, and otherwise collective over c through aggrs, every member of c
// calling it. Once the read is done, body starts on one of the dataset's
// fold slots (host.Slots) with the slot's worker w, the slab's element runs
// and raw, the bytes read, concatenated, when the dataset holds bytes (nil
// when it is Synthetic). FoldVara returns the job's Join. The caller may go
// on, and yield, while body runs; it must Wait on the join before it reads
// what body makes, and on every path out.
//
// body runs on a goroutine of its own, at the same time as the simulation,
// unless the slab is under host.Grain elements or GOMAXPROCS is 1, when it
// runs before FoldVara returns. It must not yield to the simulation kernel
// or touch anything the simulation does: w (WorkerValues, Scan, w.Slabs),
// the schema and generators, which never change, and the runs and bytes it
// is given are its to use.
func (ds *Dataset) FoldVara(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, id int, slab layout.Slab,
	aggrs []int, p adio.Params, independent bool, body func(w *Worker, elemRuns []layout.Run, raw []byte)) (*host.Join, error) {
	elems, raw, err := ds.readVara(id, slab, func(rq adio.Request) error {
		if independent {
			return adio.IndependentRead(cl, ds.file, rq, p)
		}
		return adio.CollectiveRead(r, c, cl, ds.file, rq, aggrs, p)
	})
	if err != nil {
		return nil, err
	}
	return ds.folds.Start(slab.NumElems(), func(w *Worker) { body(w, elems, raw) }), nil
}
