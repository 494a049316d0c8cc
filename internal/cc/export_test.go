package cc

import (
	"repro/internal/layout"
	"repro/internal/ncfile"
)

// FoldRuns folds the values of runs of variable id's elements, in order,
// from st on worker w, as the CC map folds an owner group's pieces from
// op.Zero(), and reports whether the fold scanned. raw is the runs' bytes,
// concatenated, when the dataset holds bytes, and nil when it is Synthetic.
func FoldRuns(w *ncfile.Worker, ds *ncfile.Dataset, id int, runs []layout.Run, op Op, st State, raw []byte) (State, bool) {
	v, _ := ds.Var(id)
	f := newFold(op, ds.CanScan(id), st)
	for _, run := range runs {
		var b []byte
		if raw != nil {
			b, raw = raw[:run.Length*v.Type.Size()], raw[run.Length*v.Type.Size():]
		}
		f.run(w, ds, id, run, w.Slabs.RunToSlabs(v.Dims, run, true), b)
	}
	return f.state(v.Dims), f.sc != nil
}

// The value beds' content, the split of a region among ranks and a
// GOMAXPROCS switch, for the external tests.
var (
	UnroundedAt = unroundedAt
	SplitSlab   = splitSlab
	AtProcs     = atProcs
)
