package experiments

import (
	"fmt"
	"math"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/wrf"
)

// leg is one measured run of a paper figure: everything that differs between
// the runs of the evaluation. runLeg gives every leg a fresh machine, so no
// state leaks between legs.
type leg struct {
	name        string // the job's name in a trace
	nranks, rpn int
	// create makes the variable the ranks read, of shape dims, striped
	// stripeSize over stripes OSTs: climate.NewDataset3D,
	// climate.NewDataset4D or stormSLP.
	create     func(fs *pfs.FS, dims []int64, stripes int, stripeSize int64) (*ncfile.Dataset, int, error)
	dims       []int64
	stripes    int
	stripeSize int64
	slabs      []layout.Slab // each rank's access
	plan       *fault.Plan   // injected faults; nil is a healthy machine
	profile    bool          // record rank time (Figures 2-3)
	obs        *obs.Tracer
	// A rank reads through cc.ObjectGetVara with io and op; runLeg fills in
	// the dataset, the rank's slab, the run's Stats and a fresh plan cache.
	io cc.IO
	op cc.Op
	// chargeOnly instead reads the rank's byte runs charge-only through adio
	// (Figures 1-3): collectively over io.Aggregators, or independently when
	// io.Mode is cc.Independent, with io.Params.
	chargeOnly bool
}

// legRun is what runLeg measured.
type legRun struct {
	makespan float64
	stats    cc.Stats
	root     cc.Result // the root rank's result; zero for a charge-only leg
	cl       *cluster.Cluster
}

// runLeg runs l on a fresh machine counting time in cfg's unit. Every rank
// must end holding the root's value, bit for bit.
func (cfg Config) runLeg(l leg) (legRun, error) {
	run := legRun{cl: cluster.New(cluster.Spec{Ranks: l.nranks, RanksPerNode: l.rpn, Obs: l.obs,
		TimeUnit: cfg.timeUnit})}
	cl := run.cl
	if l.plan != nil {
		l.plan.Apply(cl.World(), cl.FS())
	}
	ds, id, err := l.create(cl.FS(), l.dims, l.stripes, l.stripeSize)
	if err != nil {
		return run, err
	}
	if l.profile {
		// The renderer strides, so one small bucket serves every scale. It
		// is in the machine's units: 100 requests' latency, 0.05 s on
		// Hopper.
		cl.ProfileRanks(100 * cl.FS().Params().OSTLatency)
	}
	io := l.io
	io.DS, io.VarID, io.Stats = ds, id, &run.stats
	io.Params.PlanCache = &adio.PlanCache{}
	vals := make([]float64, l.nranks)
	run.makespan, err = cl.RunSPMD(l.name, func(ctx *cluster.JobContext, r *mpi.Rank) error {
		me := ctx.Comm().RankOf(r)
		if l.chargeOnly {
			runs, err := ds.ByteRuns(id, l.slabs[me])
			if err != nil {
				return err
			}
			req := adio.Request{Runs: runs, ChargeOnly: true}
			if io.Mode == cc.Independent {
				return adio.IndependentRead(ctx.Client(r), ds.File(), req, io.Params)
			}
			return adio.CollectiveRead(r, ctx.Comm(), ctx.Client(r), ds.File(), req, io.Aggregators, io.Params)
		}
		rio := io
		rio.Slab = l.slabs[me]
		res, err := cc.ObjectGetVara(r, ctx.Comm(), ctx.Client(r), rio, l.op)
		if res.Root {
			run.root = res
		}
		vals[me] = res.Value
		return err
	})
	if err != nil {
		return run, err
	}
	for rank, v := range vals {
		if math.Float64bits(v) != math.Float64bits(run.root.Value) {
			return run, fmt.Errorf("%s: rank %d holds %v, the root %v", l.name, rank, v, run.root.Value)
		}
	}
	if cfg.observe != nil {
		cfg.observe(l, run)
	}
	return run, nil
}

// calibrate runs trad, a blocking leg, with zero compute, and returns its
// makespan tIO and the map cost per element at which a rank of perRankElems
// elements computes k·tIO.
func (cfg Config) calibrate(trad leg, perRankElems int64) (float64, func(k float64) float64, error) {
	trad.io.SecPerElem = 0
	run, err := cfg.runLeg(trad)
	tIO := run.makespan
	return tIO, func(k float64) float64 { return k * tIO / float64(perRankElems) }, err
}

// compare runs a point's traditional leg, then its collective-computing leg.
func (cfg Config) compare(trad, ccl leg) (legRun, legRun, error) {
	tr, err := cfg.runLeg(trad)
	if err != nil {
		return tr, legRun{}, err
	}
	cr, err := cfg.runLeg(ccl)
	return tr, cr, err
}

// stormSLP creates Figure 13's WRF storm of shape dims (T, Y, X) and returns
// its sea-level pressure variable.
func stormSLP(fs *pfs.FS, dims []int64, stripes int, stripeSize int64) (*ncfile.Dataset, int, error) {
	d, err := wrf.NewDataset(fs, wrf.DefaultStorm(dims[0], dims[1], dims[2]), stripes, stripeSize)
	if err != nil {
		return nil, 0, err
	}
	return d.DS, d.MinSLPTask().VarID, nil
}

// bench is the 3-D climate benchmark of Figures 9-11 and faults: nranks ranks
// at rpn per node read sub, each a thin latitude band of it, through naggr
// spread aggregators with cb collective buffers, from a variable of shape dims
// striped stripeSize over 40 OSTs.
type bench struct {
	nranks, rpn, naggr int
	dims               []int64
	slabs              []layout.Slab
	perRankElems       int64
	cb, stripeSize     int64
}

func newBench(nranks, rpn, naggr int, dims []int64, sub layout.Slab, cb int64) bench {
	return bench{nranks: nranks, rpn: rpn, naggr: naggr, dims: dims,
		slabs:        climate.SplitAlongDim(sub, 1, nranks),
		perRankElems: sub.Count[0] * (sub.Count[1] / int64(nranks)) * sub.Count[2],
		cb:           cb, stripeSize: 4 << 20}
}

// legs returns the benchmark's traditional and collective-computing Sum legs
// at map cost spe. The traditional leg blocks without pipelining: paper
// Figure 5's baseline.
func (b bench) legs(name string, spe float64) (trad, ccl leg) {
	ccl = leg{name: name, nranks: b.nranks, rpn: b.rpn,
		create: climate.NewDataset3D, dims: b.dims, stripes: 40, stripeSize: b.stripeSize,
		slabs: b.slabs,
		io: cc.IO{Reduce: cc.AllToOne, Aggregators: adio.SpreadAggregators(b.nranks, b.naggr),
			Params: adio.Params{CB: b.cb, Pipeline: true}, SecPerElem: spe},
		op: cc.Sum{}}
	trad = ccl
	trad.io.Block, trad.io.Params.Pipeline = true, false
	return trad, ccl
}
