package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/layout"
)

// oracleCCKeys formats a normalized job's two keys with fmt: the shape key
// (also Job.PlanKey) and the memo key's text, the oracles the appended shape
// key and the value memo key are held to.
func oracleCCKeys(j CCJob) (shape, memo string) {
	shape = fmt.Sprintf("cc:%s:v%d:%v:%v:d%d:r%d:cb%d:b%t",
		j.Dataset, j.VarID, j.Slab.Start, j.Slab.Count, j.SplitDim, j.Ranks, j.CB, j.Block)
	return shape, fmt.Sprintf("%s:red%d:op%T%+v", shape, j.Reduce, j.Op, j.Op)
}

// TestCCKeysMatchFormattedKeys holds the appended shape key and the value
// memo key to the formatted ones: the shape key byte for byte, and memo-key
// equality to text equality over every pair of a job table that spans the
// operators, slab ranks, block and reduce modes and defaulted fields — but
// for the pairs where == and the text part by design (±0, NaN, pointers),
// which the table names and the test requires to part.
func TestCCKeysMatchFormattedKeys(t *testing.T) {
	c := newMemoCluster(t, 4, 0, true)
	slab := func(start, count []int64) layout.Slab { return layout.Slab{Start: start, Count: count} }
	whole := slab([]int64{0, 0, 0}, []int64{16, 32, 32})
	hist := cc.Histogram{Lo: -40, Hi: 50, Bins: 32}
	base := func(name string, op cc.Op) CCJob {
		return CCJob{Name: name, Ranks: 4, Dataset: "climate", Slab: whole, Op: op}
	}
	var jobs []CCJob
	add := func(j CCJob) { jobs = append(jobs, j) }
	for _, name := range []string{"sum", "count", "min", "max", "mean", "minloc", "maxloc", "variance"} {
		op, err := cc.OpByName(name)
		if err != nil {
			t.Fatal(err)
		}
		add(base(name, op))
	}
	negZero := math.Copysign(0, -1)
	for _, h := range []struct {
		name string
		op   cc.Op
	}{
		{"hist", hist},
		{"hist-twin", cc.Histogram{Lo: -40, Hi: 50, Bins: 32}},
		{"hist-frac", cc.Histogram{Lo: -0.25, Hi: 0.75, Bins: 8}},
		{"hist+0", cc.Histogram{Lo: 0, Hi: 320, Bins: 12}},
		{"hist-0", cc.Histogram{Lo: negZero, Hi: 320, Bins: 12}},
		{"hist-nan", cc.Histogram{Lo: math.NaN(), Hi: 1, Bins: 4}},
		{"hist-nan-twin", cc.Histogram{Lo: math.NaN(), Hi: 1, Bins: 4}},
		{"hist-ptr", &cc.Histogram{Lo: 1, Hi: 2, Bins: 4}},
		{"hist-ptr-twin", &cc.Histogram{Lo: 1, Hi: 2, Bins: 4}},
		{"fuse", cc.Fuse{Ops: []cc.Op{cc.Sum{}, hist}}},
		{"fuse-twin", cc.Fuse{Ops: []cc.Op{cc.Sum{}, hist}}},
		{"fuse-other", cc.Fuse{Ops: []cc.Op{cc.Sum{}, cc.Max{}}}},
		{"window", cc.WindowOp{Op: cc.Sum{}, Window: slab([]int64{4, 8, 8}, []int64{8, 16, 16})}},
		{"window-other", cc.WindowOp{Op: cc.Sum{}, Window: slab([]int64{4, 8, 8}, []int64{8, 16, 8})}},
		{"perindex", cc.PerIndex{Inner: cc.Max{}, Keys: 16}},
		{"perindex-fuse", cc.PerIndex{Inner: cc.Fuse{Ops: []cc.Op{cc.Min{}}}, Keys: 16}},
	} {
		add(base(h.name, h.op))
	}
	for d, s := range []layout.Slab{
		slab([]int64{3}, []int64{9}),
		slab([]int64{0, 4}, []int64{16, 28}),
		slab([]int64{0, 4, 8}, []int64{16, 28, 24}),
		slab([]int64{1, 0, 4, 8}, []int64{2, 16, 28, 24}),
	} {
		j := base(fmt.Sprintf("slab%dd", d+1), cc.Sum{})
		j.Slab = s
		add(j)
	}
	split := base("split1", cc.Sum{})
	split.SplitDim = 1
	block := base("block", cc.Sum{})
	block.Block = true
	a2a := base("alltoall", cc.Sum{})
	a2a.Reduce = cc.AllToAll
	a2aHist := base("alltoall-hist", hist)
	a2aHist.Reduce = cc.AllToAll
	wide := base("defaulted-ranks", cc.Sum{})
	wide.Ranks = 0
	wideSet := base("explicit-ranks", cc.Sum{})
	wideSet.Ranks = c.spec.Ranks
	cb := base("cb1m", cc.Sum{})
	cb.CB = 1 << 20
	cbSet := base("explicit-cb", cc.Sum{})
	cbSet.CB = 4 << 20
	ranks2 := base("ranks2", cc.Sum{})
	ranks2.Ranks = 2
	other := base("dataset-other", cc.Sum{})
	other.Dataset = "climate2"
	c.RegisterDataset("climate2", c.Dataset("climate"))
	for _, j := range []CCJob{split, block, a2a, a2aHist, wide, wideSet, cb, cbSet, ranks2, other} {
		add(j)
	}

	// The pairs whose memo keys compare other than their text does.
	type pair struct{ a, b string }
	parts := map[pair]bool{
		{"hist+0", "hist-0"}:          true,  // == shares; the text spelled -0
		{"hist-nan", "hist-nan-twin"}: false, // NaN != NaN; the text shared
		{"hist-ptr", "hist-ptr-twin"}: false, // distinct pointers; equal text
	}

	metas := make([]*ccMeta, len(jobs))
	texts := make([]string, len(jobs))
	for i, j := range jobs {
		_, meta := c.prepareCC(j)
		shape, text := oracleCCKeys(meta.job)
		if meta.shapeKey != shape {
			t.Errorf("%s: shape key %q, formatted %q", j.Name, meta.shapeKey, shape)
		}
		metas[i], texts[i] = meta, text
	}
	for i := range jobs {
		if want := jobs[i].Name != "hist-nan" && jobs[i].Name != "hist-nan-twin"; metas[i].memoKey.shares() != want {
			t.Errorf("%s: memo key shares() = %v, want %v", jobs[i].Name, !want, want)
		}
		for k := i + 1; k < len(jobs); k++ {
			eq, textEq := metas[i].memoKey == metas[k].memoKey, texts[i] == texts[k]
			want, named := parts[pair{jobs[i].Name, jobs[k].Name}]
			switch {
			case named && (eq != want || eq == textEq):
				t.Errorf("%s vs %s: memo keys equal = %v, text equal = %v; want %v against the text",
					jobs[i].Name, jobs[k].Name, eq, textEq, want)
			case !named && eq != textEq:
				t.Errorf("%s vs %s: memo keys equal = %v, but text equal = %v\n  %s\n  %s",
					jobs[i].Name, jobs[k].Name, eq, textEq, texts[i], texts[k])
			}
		}
	}
}

// TestSignedZeroHistogramsShareOneCachedResult: a Histogram at Lo = +0 and
// one at Lo = −0 have equal memo keys, and the one cached pass serves both
// with exactly the bits each computes cold.
func TestSignedZeroHistogramsShareOneCachedResult(t *testing.T) {
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{16, 32, 32}}
	jobs := []CCJob{
		ccOpJob("hist+0", cc.Histogram{Lo: 0, Hi: 320, Bins: 12}, cc.AllToOne, whole),
		ccOpJob("hist-0", cc.Histogram{Lo: math.Copysign(0, -1), Hi: 320, Bins: 12}, cc.AllToOne, whole),
	}
	cold := make([]cc.Result, len(jobs))
	for i, j := range jobs {
		c := newMemoCluster(t, 4, 0, false)
		cr := c.SubmitCC(j)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if !cr.Valid() {
			t.Fatalf("%s cold: %v", j.Name, cr.Err)
		}
		cold[i] = cr.Res
	}
	c := newMemoCluster(t, 4, 0, true)
	warm := []*CCResult{c.SubmitCC(jobs[0]), c.SubmitCC(jobs[1])}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if st := c.MemoStats(); st.Misses != 1 || st.Waiters+st.Hits != 1 {
		t.Fatalf("memo stats %+v: the ±0 pair did not share one pass", st)
	}
	for i, cr := range warm {
		if !cr.Valid() {
			t.Fatalf("%s warm: %v", jobs[i].Name, cr.Err)
		}
		if math.Float64bits(cr.Res.Value) != math.Float64bits(cold[i].Value) ||
			!reflect.DeepEqual(cr.Res.State, cold[i].State) {
			t.Fatalf("%s: shared result %v/%v, cold %v/%v",
				jobs[i].Name, cr.Res.Value, cr.Res.State, cold[i].Value, cold[i].State)
		}
	}
}

// TestNaNOperatorsShareByOpKey pins the NaN case of cc.OpKey's rule. A
// comparable operator with a NaN parameter keys unequal to itself: its job is
// never cached or joined as a waiter, and its twin rides the pass as a
// coalesced follower with a component of its own. Wrapped in a Fuse, which is
// not comparable, the same operator keys by its text, in which NaN equals
// NaN: the twin waits on the first job's result. Either way every job gets
// its cold run's bits.
func TestNaNOperatorsShareByOpKey(t *testing.T) {
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{16, 32, 32}}
	bare := cc.Histogram{Lo: math.NaN(), Hi: 320, Bins: 12}
	for _, tc := range []struct {
		name   string
		op     func() cc.Op
		shares bool
	}{
		{"bare", func() cc.Op { return bare }, false},
		{"fused", func() cc.Op { return cc.Fuse{Ops: []cc.Op{bare}} }, true},
	} {
		jobs := []CCJob{
			ccOpJob(tc.name, tc.op(), cc.AllToOne, whole),
			ccOpJob(tc.name+"-twin", tc.op(), cc.AllToOne, whole),
		}
		c := newMemoCluster(t, 4, 0, true)
		_, meta := c.prepareCC(jobs[0])
		if got := meta.memoKey.shares(); got != tc.shares {
			t.Errorf("%s: memo key shares() = %v, want %v", tc.name, got, tc.shares)
		}
		warm := []*CCResult{c.SubmitCC(jobs[0]), c.SubmitCC(jobs[1])}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		want := MemoStats{Misses: 1, Coalesced: 1}
		if tc.shares {
			want = MemoStats{Misses: 1, Waiters: 1}
		}
		if st := c.MemoStats(); st.Misses != want.Misses || st.Waiters != want.Waiters || st.Coalesced != want.Coalesced || st.Hits != 0 {
			t.Errorf("%s: memo stats %+v, want %d miss, %d waiter, %d coalesced", tc.name, st, want.Misses, want.Waiters, want.Coalesced)
		}
		for i, j := range jobs {
			cold := newMemoCluster(t, 4, 0, false)
			cr := cold.SubmitCC(j)
			if _, err := cold.Run(); err != nil {
				t.Fatal(err)
			}
			if !cr.Valid() || !warm[i].Valid() {
				t.Fatalf("%s: cold %v, warm %v", j.Name, cr.Err, warm[i].Err)
			}
			if math.Float64bits(warm[i].Res.Value) != math.Float64bits(cr.Res.Value) ||
				!reflect.DeepEqual(warm[i].Res.State, cr.Res.State) {
				t.Errorf("%s: shared result %v/%v, cold %v/%v",
					j.Name, warm[i].Res.Value, warm[i].Res.State, cr.Res.Value, cr.Res.State)
			}
		}
	}
}

// TestSubmitCCAllocBound: queueing a CC job with a
// comparable operator costs a fixed handful of allocations — the shape key,
// the metadata, the result, the body closure, the Job copy and the
// JobResult, plus the arrival's callback for SubmitCCAt — and not one more
// when 4,096 jobs of the same (dataset, var) already wait.
func TestSubmitCCAllocBound(t *testing.T) {
	whole := layout.Slab{Start: []int64{0, 0, 0}, Count: []int64{16, 32, 32}}
	j := ccOpJob("j", cc.Histogram{Lo: 200, Hi: 320, Bins: 12}, cc.AllToOne, whole)
	for _, sub := range []struct {
		name  string
		bound float64
		fn    func(c *Cluster)
	}{
		{"SubmitCC", 6, func(c *Cluster) { c.SubmitCC(j) }},
		{"SubmitCCAt", 7, func(c *Cluster) { c.SubmitCCAt(1, j) }},
	} {
		allocs := func(depth int) float64 {
			c := newMemoCluster(t, 4, 0, true)
			for i := 0; i < depth; i++ {
				sub.fn(c)
			}
			return testing.AllocsPerRun(200, func() { sub.fn(c) })
		}
		empty, deep := allocs(0), allocs(4096)
		t.Logf("%s: %v allocs per job on an empty queue, %v behind 4,096", sub.name, empty, deep)
		if empty > sub.bound || deep > empty {
			t.Errorf("%s: %v allocs per job on an empty queue and %v behind 4,096 pending; want <= %v, not growing",
				sub.name, empty, deep, sub.bound)
		}
	}
}
