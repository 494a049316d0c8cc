package cc

import (
	"repro/internal/layout"
	"repro/internal/ncfile"
)

// FoldRuns folds the values of runs of variable id's elements, in order,
// from st on worker w, as the CC map folds an owner group's pieces from
// op.Zero(), and reports whether the fold scanned.
func FoldRuns(w *ncfile.Worker, ds *ncfile.Dataset, id int, runs []layout.Run, op Op, st State) (State, bool) {
	v, _ := ds.Var(id)
	f := newFold(op, ds.CanScan(id), st)
	for _, run := range runs {
		f.run(w, ds, id, run, w.Slabs.RunToSlabs(v.Dims, run, true), nil)
	}
	return f.state(v.Dims), f.sc != nil
}
