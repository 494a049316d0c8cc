package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/adio"
	"repro/internal/cc"
	"repro/internal/climate"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/ncfile"
	"repro/internal/obs"
	"repro/internal/obs/decision"
	"repro/internal/pfs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A probe is a single-threaded micro-driver of one layer's public functions.
// run(n) does work proportional to n and returns how much it did and the
// host seconds the measured part took (set-up inside run is not charged).
// The harness grows n until one call lasts its share of the target time, then
// reports the fastest of probeCalls such calls (the work is fixed, so the
// fastest call is the one the host disturbed least), as a rate (work per
// second) or, with perOp set, as time per unit of work times perOp (1e9 for
// ns, 1e6 for us, 1 for s).
type probe struct {
	name, unit string
	perOp      float64
	run        func(n int) (work, secs float64)
}

const probeCalls = 5

func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// measure calibrates p and reports it; the timed calls together last at
// least target seconds.
func (p probe) measure(target float64) float64 {
	each := target / probeCalls
	n := 1
	for {
		work, secs := p.run(n)
		if secs >= each || n >= 1<<30 {
			for i := 1; i < probeCalls; i++ {
				if _, s := p.run(n); s < secs {
					secs = s
				}
			}
			if p.perOp > 0 {
				return secs / work * p.perOp
			}
			return work / secs
		}
		grow := 100.0
		if secs > 0 {
			grow = math.Min(100, 1.2*each/secs)
		}
		n = int(math.Ceil(float64(n) * math.Max(grow, 1.5)))
	}
}

// fig9Dims and fig9RankSlab are the paper's benchmark variable and one
// rank's share of the Fig. 9 subset (a thin Y band across 200 time steps).
var fig9Dims = []int64{204800, 1024, 1024}

func fig9RankSlab(steps int64) layout.Slab {
	return layout.Slab{Start: []int64{100, 0, 0}, Count: []int64{steps, 8, 1024}}
}

// llcBytes reads the largest cache of cpu0 from sysfs; 0 when unknown.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mul := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mul, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mul, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mul > best {
			best = v * mul
		}
	}
	return best
}

var sumFloat mpi.ReduceFn = func(a, b interface{}) interface{} { return a.(float64) + b.(float64) }

// absorbProbe times op.Absorb over one 1024x1024 time step of values.
func absorbProbe(name string, op cc.Op) probe {
	return probe{name: "cc.absorb_melem_per_s." + name, unit: "Melem/s", run: func(n int) (float64, float64) {
		data := make([]float64, 1<<20)
		h := uint64(88172645463325252)
		for i := range data {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			data[i] = -40 + 90*float64(h>>11)/(1<<53)
		}
		sub := cc.Subset{Slab: layout.Slab{Start: []int64{7, 0, 0}, Count: []int64{1, 1024, 1024}}, Data: data}
		st := op.Zero()
		secs := timed(func() {
			for i := 0; i < n; i++ {
				st = op.Absorb(st, sub)
			}
		})
		sink = op.Value(st)
		return float64(n) * float64(len(data)) / 1e6, secs
	}}
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink float64

// adioProbe times n passes of one access method over a 16 MiB variable on a
// 16-rank machine with real stored bytes.
func adioProbe(name string, pass func(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, f *pfs.File, rq adio.Request, p adio.Params) error) probe {
	return probe{name: name, unit: "MB/s", run: func(n int) (float64, float64) {
		const ranks = 16
		dims := []int64{64, 256, 256}
		cl := cluster.New(cluster.Spec{Ranks: ranks, RanksPerNode: 4})
		var schema ncfile.Schema
		vid, _ := schema.AddVar("v", ncfile.Float32, dims)
		ds, err := ncfile.Create(cl.FS(), "probe", &schema, pfs.NewMemBackend(schema.Layout()), 16, 1<<20, 0)
		if err != nil {
			panic(err)
		}
		whole := layout.Slab{Start: []int64{0, 0, 0}, Count: dims}
		slabs := climate.SplitAlongDim(whole, 1, ranks)
		caches := make([]adio.PlanCache, n)
		var secs float64
		_, err = cl.RunSPMD("probe", func(ctx *cluster.JobContext, r *mpi.Rank) error {
			c := ctx.Comm()
			me := c.RankOf(r)
			runs, err := ds.ByteRuns(vid, slabs[me])
			if err != nil {
				return err
			}
			rq := adio.Request{Runs: runs, Buf: make([]byte, layout.TotalLength(runs))}
			c.Barrier(r)
			var t0 time.Time
			if me == 0 {
				t0 = time.Now()
			}
			for i := 0; i < n; i++ {
				if err := pass(r, c, ctx.Client(r), ds.File(), rq, adio.Params{CB: 4 << 20, PlanCache: &caches[i]}); err != nil {
					return err
				}
				c.Barrier(r)
			}
			if me == 0 {
				secs = time.Since(t0).Seconds()
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		return float64(n) * float64(whole.NumElems()*4) / 1e6, secs
	}}
}

// hostProbes are the calibrated micro-drivers, layer by layer.
func hostProbes(seed uint64, sz sizing) []probe {
	codecElems := sz.codecElems
	var codecRaw []byte
	var codecVals []float64
	codec := func() {
		if codecRaw == nil {
			codecRaw = make([]byte, 4*codecElems)
			codecVals = make([]float64, codecElems)
			for i := range codecVals {
				codecVals[i] = float64(i%4093) * 0.25
			}
			copy(codecRaw, ncfile.EncodeValues(ncfile.Float32, codecVals))
		}
	}
	var probeTr *workload.Trace
	var probeTrBytes []byte
	probeTrace := func() (*workload.Trace, []byte) {
		if probeTr == nil {
			var err error
			if probeTr, err = genStream(seed, 4, sz.traceJobs); err != nil {
				panic(err)
			}
			var buf bytes.Buffer
			if err := workload.Write(&buf, probeTr); err != nil {
				panic(err)
			}
			probeTrBytes = buf.Bytes()
		}
		return probeTr, probeTrBytes
	}
	ps := []probe{
		{name: "sim.timer_events_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			env := sim.NewEnv()
			const live = 4096
			total, fired := n*1000, 0
			lcg := uint64(1)
			var fire func()
			fire = func() {
				fired++
				if fired+live <= total {
					lcg = lcg*6364136223846793005 + 1442695040888963407
					env.At(env.Now()+float64(lcg>>40)*1e-9, fire)
				}
			}
			for i := 0; i < live && i < total; i++ {
				env.At(float64(i)*1e-6, fire)
			}
			secs := timed(func() { env.Run() })
			return float64(fired), secs
		}},
		{name: "sim.mailbox_pingpong_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			env := sim.NewEnv()
			a, b := sim.NewMailbox[int](env, "a"), sim.NewMailbox[int](env, "b")
			trips := n * 100
			env.Spawn("ping", func(p *sim.Proc) {
				for i := 0; i < trips; i++ {
					b.Send(i, 8, p.Now()+1e-6)
					a.Recv(p)
				}
			})
			env.Spawn("pong", func(p *sim.Proc) {
				for i := 0; i < trips; i++ {
					m := b.Recv(p)
					a.Send(m.Payload, 8, p.Now()+1e-6)
				}
			})
			secs := timed(func() { env.Run() })
			return float64(trips), secs
		}},
		{name: "sim.spawn_procs_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			env := sim.NewEnv()
			procs := n * 100
			secs := timed(func() {
				for i := 0; i < procs; i++ {
					env.Spawn("p", func(p *sim.Proc) { p.Sleep(1e-6) })
				}
				env.Run()
			})
			return float64(procs), secs
		}},
		{name: "mpi.p2p_msgs_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			env := sim.NewEnv()
			w := mpi.NewWorld(env, 2, fabric.Params{RanksPerNode: 1})
			msgs := n * 100
			w.Go(func(r *mpi.Rank) {
				for i := 0; i < msgs; i++ {
					if r.Rank() == 0 {
						r.Send(1, 7, i, 64)
					} else {
						r.Recv(0, 7)
					}
				}
			})
			secs := timed(func() { env.Run() })
			return float64(msgs), secs
		}},
		{name: "mpi.allreduce_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			env := sim.NewEnv()
			w := mpi.NewWorld(env, 64, fabric.Params{RanksPerNode: 8})
			c := w.Comm()
			calls := n * 10
			w.Go(func(r *mpi.Rank) {
				for i := 0; i < calls; i++ {
					c.Allreduce(r, float64(r.Rank()), 8, sumFloat)
				}
			})
			secs := timed(func() { env.Run() })
			return float64(calls), secs
		}},
		{name: "pfs.read_reqs_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			env := sim.NewEnv()
			fs := pfs.New(env, pfs.Params{})
			f := fs.Create("probe", pfs.NewSynthBackend(1<<40, func(int64, []byte) {}), 40, 4<<20, 0)
			reqs := n * 100
			env.Spawn("client", func(p *sim.Proc) {
				cl := fs.Client(p, 0, nil)
				buf := make([]byte, 64<<10)
				for i := 0; i < reqs; i++ {
					cl.Read(f, buf, int64(i)*int64(len(buf)))
				}
			})
			secs := timed(func() { env.Run() })
			return float64(reqs), secs
		}},
		{name: "pfs.write_reqs_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			env := sim.NewEnv()
			fs := pfs.New(env, pfs.Params{})
			const size = 64 << 20
			f := fs.Create("probe", pfs.NewMemBackend(size), 40, 4<<20, 0)
			reqs := n * 100
			env.Spawn("client", func(p *sim.Proc) {
				cl := fs.Client(p, 0, nil)
				buf := make([]byte, 64<<10)
				for i := 0; i < reqs; i++ {
					cl.Write(f, buf, int64(i)*int64(len(buf))%size)
				}
			})
			secs := timed(func() { env.Run() })
			return float64(reqs), secs
		}},
		{name: "layout.run_to_slabs_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			runs := layout.Flatten(fig9Dims, fig9RankSlab(200))
			calls := 0
			secs := timed(func() {
				for i := 0; i < n; i++ {
					for _, r := range runs {
						sink += float64(len(layout.RunToSlabs(fig9Dims, r, true)))
						calls++
					}
				}
			})
			return float64(calls), secs
		}},
		{name: "layout.flatten_runs_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			slab := fig9RankSlab(200)
			runs := 0
			secs := timed(func() {
				for i := 0; i < n; i++ {
					runs += len(layout.Flatten(fig9Dims, slab))
				}
			})
			return float64(runs), secs
		}},
		{name: "ncfile.decode_melem_per_s", unit: "Melem/s", run: func(n int) (float64, float64) {
			codec()
			secs := timed(func() {
				for i := 0; i < n; i++ {
					codecVals = ncfile.DecodeValues(ncfile.Float32, codecRaw, codecVals)
				}
			})
			return float64(n) * float64(codecElems) / 1e6, secs
		}},
		{name: "ncfile.encode_melem_per_s", unit: "Melem/s", run: func(n int) (float64, float64) {
			codec()
			secs := timed(func() {
				for i := 0; i < n; i++ {
					sink += float64(len(ncfile.EncodeValues(ncfile.Float32, codecVals)))
				}
			})
			return float64(n) * float64(codecElems) / 1e6, secs
		}},
		{name: "ncfile.synth_read_melem_per_s", unit: "Melem/s", run: func(n int) (float64, float64) {
			codecRaw, codecVals = nil, nil // the codec probes are done; free their arrays
			cl := cluster.New(cluster.Spec{Ranks: 1})
			ds, vid, err := climate.NewDataset3D(cl.FS(), fig9Dims, 40, 4<<20)
			if err != nil {
				panic(err)
			}
			slab := layout.Slab{Start: []int64{100, 0, 0}, Count: []int64{int64(n), 256, 1024}}
			var secs float64
			_, err = cl.RunSPMD("probe", func(ctx *cluster.JobContext, r *mpi.Rank) error {
				var vals []float64
				var err error
				secs = timed(func() { vals, err = ds.GetVara(ctx.Client(r), vid, slab, adio.Params{}) })
				sink += vals[len(vals)-1]
				return err
			})
			if err != nil {
				panic(err)
			}
			return float64(slab.NumElems()) / 1e6, secs
		}},
		adioProbe("adio.coll_read_mb_per_s", func(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, f *pfs.File, rq adio.Request, p adio.Params) error {
			return adio.CollectiveRead(r, c, cl, f, rq, nil, p)
		}),
		adioProbe("adio.coll_write_mb_per_s", func(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, f *pfs.File, rq adio.Request, p adio.Params) error {
			return adio.CollectiveWrite(r, c, cl, f, rq, nil, p)
		}),
		adioProbe("adio.indep_read_mb_per_s", func(r *mpi.Rank, c *mpi.Comm, cl *pfs.Client, f *pfs.File, rq adio.Request, p adio.Params) error {
			return adio.IndependentRead(cl, f, rq, p)
		}),
		absorbProbe("sum", cc.Sum{}),
		absorbProbe("mean", cc.Mean{}),
		absorbProbe("hist", cc.Histogram{Lo: -40, Hi: 50, Bins: 32}),
		absorbProbe("minloc", cc.MinLoc{}),
		absorbProbe("variance", cc.Variance{}),
		{name: "cc.merge_per_s.hist", unit: "1/s", run: func(n int) (float64, float64) {
			h := cc.Histogram{Lo: -40, Hi: 50, Bins: 32}
			a, b := h.Zero(), h.Zero()
			b.([]int64)[3] = 1
			merges := n * 1000
			secs := timed(func() {
				for i := 0; i < merges; i++ {
					a = h.Merge(a, b)
				}
			})
			sink += h.Value(a)
			return float64(merges), secs
		}},
		{name: "cluster.memo_hit_us_per_job", unit: "us", perOp: 1e6, run: func(n int) (float64, float64) {
			c := cluster.New(cluster.Spec{Ranks: 32, RanksPerNode: 8, Memo: true})
			ds, _, err := climate.NewDataset3D(c.FS(), []int64{96, 16, 16}, 8, 1<<20)
			if err != nil {
				panic(err)
			}
			c.RegisterDataset("d", ds)
			jobs := n * 100
			results := make([]*cluster.CCResult, jobs)
			for i := range results {
				// One job per virtual second: each finds its twin already done.
				results[i] = c.SubmitCCAt(float64(i), cluster.CCJob{
					Name: "j" + strconv.Itoa(i), Ranks: 4, Dataset: "d",
					Slab: layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{8, 16, 16}},
					Op:   cc.Sum{}, SecPerElem: 1e-6,
				})
			}
			secs := timed(func() {
				if _, err := c.Run(); err != nil {
					panic(err)
				}
			})
			if ms := c.MemoStats(); ms.Hits != jobs-1 {
				panic(fmt.Sprintf("memo probe: %d hits of %d jobs", ms.Hits, jobs))
			}
			return float64(jobs), secs
		}},
		{name: "workload.generate_jobs_per_s", unit: "1/s", run: func(n int) (float64, float64) {
			var tr *workload.Trace
			secs := timed(func() {
				var err error
				if tr, err = workload.Generate(streamSpec(4, n*1000)); err != nil {
					panic(err)
				}
			})
			return float64(len(tr.Jobs)), secs
		}},
		{name: "workload.trace_write_mb_per_s", unit: "MB/s", run: func(n int) (float64, float64) {
			tr, _ := probeTrace()
			var buf bytes.Buffer
			secs := timed(func() {
				for i := 0; i < n; i++ {
					buf.Reset()
					if err := workload.Write(&buf, tr); err != nil {
						panic(err)
					}
				}
			})
			return float64(n) * float64(buf.Len()) / 1e6, secs
		}},
		{name: "workload.trace_read_mb_per_s", unit: "MB/s", run: func(n int) (float64, float64) {
			_, traceBytes := probeTrace()
			secs := timed(func() {
				for i := 0; i < n; i++ {
					if _, err := workload.Read(bytes.NewReader(traceBytes)); err != nil {
						panic(err)
					}
				}
			})
			return float64(n) * float64(len(traceBytes)) / 1e6, secs
		}},
		{name: "obs.span_ns", unit: "ns", perOp: 1e9, run: func(n int) (float64, float64) {
			ot := obs.New()
			spans := n * 1000
			secs := timed(func() {
				for i := 0; i < spans; i++ {
					id := ot.Begin(1, 0, "read", "pfs", float64(i))
					ot.End(id, float64(i)+0.5)
				}
			})
			return float64(spans), secs
		}},
		{name: "obs.event_append_ns", unit: "ns", perOp: 1e9, run: func(n int) (float64, float64) {
			ev := obs.Event{E: "span", ID: 7, T: 1.25, Dur: 0.5, PID: 3, TID: 2, Name: "read", Cat: "pfs",
				Attrs: []obs.Attr{obs.S("ost", "12"), obs.I("bytes", 4<<20)}}
			var buf []byte
			secs := timed(func() {
				for i := 0; i < n*1000; i++ {
					buf = obs.AppendEventJSON(buf[:0], ev)
				}
			})
			sink += float64(len(buf))
			return float64(n * 1000), secs
		}},
		{name: "obs.vec_with_ns", unit: "ns", perOp: 1e9, run: func(n int) (float64, float64) {
			v := obs.NewRegistry().CounterVec("probe_total", "tenant", "class")
			secs := timed(func() {
				for i := 0; i < n*1000; i++ {
					v.With("interactive/c17", "interactive").Inc()
				}
			})
			return float64(n * 1000), secs
		}},
		{name: "obs.decision_append_ns", unit: "ns", perOp: 1e9, run: func(n int) (float64, float64) {
			rec := decision.Record{Round: 12, T: 3.5, Policy: "priority", Job: "batch-00042", Seq: 42,
				Outcome: decision.Skip, Reason: decision.InsufficientRanks, BlockedBy: "batch-00017",
				BlockedBySeq: 17, Width: 8, Wait: 1.25, Free: 2, FreeRanks: "3,9"}
			var buf []byte
			secs := timed(func() {
				for i := 0; i < n*1000; i++ {
					buf = decision.AppendJSON(buf[:0], rec)
				}
			})
			sink += float64(len(buf))
			return float64(n * 1000), secs
		}},
		{name: "obs.series_append_ns", unit: "ns", perOp: 1e9, run: func(n int) (float64, float64) {
			pt := obs.SeriesPoint{Round: 12, T: 3.5, QueueDepth: 40, RanksBusy: 30, RanksTotal: 32,
				OSTBusy: make([]float64, 156),
				Classes: []obs.ClassWait{{Class: "batch", N: 9, P50: 1.5, P99: 7}, {Class: "interactive", N: 40, P50: 0.1, P99: 2}}}
			for i := range pt.OSTBusy {
				pt.OSTBusy[i] = float64(i) * 0.0137
			}
			var buf []byte
			secs := timed(func() {
				for i := 0; i < n*100; i++ {
					buf = obs.AppendSeriesJSON(buf[:0], pt)
				}
			})
			sink += float64(len(buf))
			return float64(n * 100), secs
		}},
	}
	return ps
}

// admitProbe submits depth one-rank jobs at t=0 on a 32-rank machine under
// the policy and returns the host seconds Cluster.Run took.
func admitProbe(policy string, depth int) float64 {
	c := cluster.New(cluster.Spec{Ranks: 32, RanksPerNode: 8, Policy: policy})
	sessions := make([]*cluster.Session, 16)
	for i := range sessions {
		sessions[i] = c.Session("t" + strconv.Itoa(i))
	}
	for i := 0; i < depth; i++ {
		cost := 1e-3 * float64(1+i%5)
		sessions[i%len(sessions)].Submit(&cluster.Job{
			Name: "j" + strconv.Itoa(i), Ranks: 1, Priority: i % 7, EstCost: cost,
			Main: func(ctx *cluster.JobContext, r *mpi.Rank) error {
				r.Compute(cost)
				return nil
			},
		})
	}
	return timed(func() {
		if _, err := c.Run(); err != nil {
			panic(err)
		}
	})
}

// policies are the admission policies probed; fifo, the first, is the
// baseline that does not scan the queue and has no scaling exponent.
var policies = []string{"fifo", "easy-backfill", "priority", "fairshare"}

// admitProbes measures admission cost per job at the deep queue and the
// log-slope of total cost between the shallow and the deep queue. The deep
// queue costs seconds and is run once; the shallow one costs milliseconds,
// where one collection would show, and is the fastest of probeCalls runs.
func admitProbes(shallow, deep int, out map[string]float64) {
	for _, pol := range policies {
		td := admitProbe(pol, deep)
		out["cluster.admit_us_per_job."+pol] = td / float64(deep) * 1e6
		if pol == "fifo" {
			continue
		}
		ts := admitProbe(pol, shallow)
		for i := 1; i < probeCalls; i++ {
			ts = math.Min(ts, admitProbe(pol, shallow))
		}
		out["cluster.admit_scaling_exp."+pol] = math.Log(td/ts) / math.Log(float64(deep)/float64(shallow))
	}
}

// reportProbes records a small observed stream and times the offline report
// pipeline over its log, step by step.
func reportProbes(seed uint64, jobs int, dir string, target float64, out map[string]float64) error {
	tr, err := genStream(seed, 4, jobs)
	if err != nil {
		return err
	}
	dir, err = os.MkdirTemp(dir, "report-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fl := telemetryFiles(dir)
	fl.Report = ""
	ot := obs.New()
	plane, err := fl.Attach(ot, io.Discard)
	if err != nil {
		return err
	}
	_, _, err = workload.Run(tr, ot)
	if _, ferr := plane.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	st, err := os.Stat(fl.Events)
	if err != nil {
		return err
	}
	var data *report.Data
	out["report.load_mb_per_s"] = probe{run: func(n int) (float64, float64) {
		secs := timed(func() {
			for i := 0; i < n; i++ {
				if data, err = report.Load(fl.Events, fl.Series); err != nil {
					panic(err)
				}
			}
		})
		return float64(n) * float64(st.Size()) / 1e6, secs
	}}.measure(target)
	var rep *report.Report
	out["report.build_s"] = probe{perOp: 1, run: func(n int) (float64, float64) {
		return float64(n), timed(func() {
			for i := 0; i < n; i++ {
				rep = report.Build(data, 0)
			}
		})
	}}.measure(target)
	out["report.write_text_s"] = probe{perOp: 1, run: func(n int) (float64, float64) {
		return float64(n), timed(func() {
			for i := 0; i < n; i++ {
				if err := rep.WriteText(io.Discard); err != nil {
					panic(err)
				}
			}
		})
	}}.measure(target)
	return nil
}

// runProbes runs every probe and returns name -> value. target is the
// minimum duration of a calibrated probe's reported call.
func runProbes(seed uint64, sz sizing, tmp string, target float64) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range hostProbes(seed, sz) {
		out[p.name] = p.measure(target)
	}
	admitProbes(sz.admitShallow, sz.admitDeep, out)
	if err := reportProbes(seed, sz.reportJobs, tmp, target, out); err != nil {
		return nil, fmt.Errorf("report probes: %w", err)
	}
	return out, nil
}

// probeDefs describes every probe metric, in output order. Rates are better
// higher; times per operation and the scaling exponents better lower.
func probeDefs() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Clock: clockHost, Better: better})
	}
	for _, p := range hostProbes(0, sizing{}) {
		better := "higher"
		if p.perOp > 0 {
			better = "lower"
		}
		add(p.name, p.unit, better)
	}
	for _, pol := range policies {
		add("cluster.admit_us_per_job."+pol, "us", "lower")
	}
	for _, pol := range policies[1:] {
		add("cluster.admit_scaling_exp."+pol, "exponent", "lower")
	}
	add("report.load_mb_per_s", "MB/s", "higher")
	add("report.build_s", "s", "lower")
	add("report.write_text_s", "s", "lower")
	return defs
}
