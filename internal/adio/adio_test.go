package adio

import (
	"bytes"

	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// pattern fills the backend deterministically.
func pattern(off int64, p []byte) {
	for i := range p {
		p[i] = byte((off + int64(i)) * 7)
	}
}

func patternBytes(r layout.Run) []byte {
	b := make([]byte, r.Length)
	pattern(r.Offset, b)
	return b
}

// wantBuf is the expected buffer for a request over the pattern backend.
func wantBuf(runs []layout.Run) []byte {
	var out []byte
	for _, r := range runs {
		out = append(out, patternBytes(r)...)
	}
	return out
}

// randRuns generates sorted disjoint runs within [0, fileSize).
func randRuns(rng *rand.Rand, fileSize int64, maxRuns int) []layout.Run {
	n := rng.Intn(maxRuns + 1)
	var runs []layout.Run
	pos := int64(0)
	for i := 0; i < n && pos < fileSize-2; i++ {
		gap := int64(rng.Intn(int(fileSize / int64(maxRuns*2))))
		pos += gap + 1
		if pos >= fileSize {
			break
		}
		length := 1 + int64(rng.Intn(int(min64(fileSize-pos, fileSize/int64(maxRuns*2))+1)))
		runs = append(runs, layout.Run{Offset: pos, Length: length})
		pos += length
	}
	return runs
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

type world struct {
	env *sim.Env
	w   *mpi.World
	c   *mpi.Comm
	fs  *pfs.FS
	f   *pfs.File
}

func newWorld(n int, fileSize int64, stripeSize int64) *world {
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 4})
	fs := pfs.New(env, pfs.Params{NumOSTs: 8, DefaultStripeSize: stripeSize})
	f := fs.Create("data", pfs.NewSynthBackend(fileSize, pattern), 8, stripeSize, 0)
	return &world{env: env, w: w, c: w.Comm(), fs: fs, f: f}
}

// runCollectiveRead executes a collective read on n ranks with the given
// per-rank runs and returns the buffers.
func runCollectiveRead(t *testing.T, n int, fileSize int64, perRank [][]layout.Run,
	aggrs []int, p Params) [][]byte {
	t.Helper()
	wd := newWorld(n, fileSize, 1<<12)
	bufs := make([][]byte, n)
	errs := make([]error, n)
	wd.w.Go(func(r *mpi.Rank) {
		runs := perRank[r.Rank()]
		buf := make([]byte, layout.TotalLength(runs))
		cl := wd.fs.Client(r.Proc(), r.Rank(), nil)
		errs[r.Rank()] = CollectiveRead(r, wd.c, cl, wd.f, Request{Runs: runs, Buf: buf}, aggrs, p)
		bufs[r.Rank()] = buf
	})
	if err := wd.env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return bufs
}

func TestRequestValidate(t *testing.T) {
	ok := Request{Runs: []layout.Run{{Offset: 0, Length: 4}, {Offset: 8, Length: 4}}, Buf: make([]byte, 8)}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Runs: []layout.Run{{Offset: 0, Length: 4}}, Buf: make([]byte, 3)},
		{Runs: []layout.Run{{Offset: 4, Length: 4}, {Offset: 0, Length: 4}}, Buf: make([]byte, 8)},
		{Runs: []layout.Run{{Offset: 0, Length: 4}, {Offset: 2, Length: 4}}, Buf: make([]byte, 8)},
		{Runs: []layout.Run{{Offset: 0, Length: 0}}, Buf: nil},
		{Runs: []layout.Run{{Offset: -1, Length: 4}}, Buf: make([]byte, 4)},
	}
	for i, rq := range bad {
		if rq.Validate() == nil {
			t.Errorf("bad request %d validated", i)
		}
	}
}

// checkPlanOrderIsTotal: within an iteration no two pieces share (owner,
// offset), and an owner's expect list has no two entries for one (iteration,
// aggregator). The plan's two sort keys are therefore total orders, and any
// correct sort — stable or not — produces this one permutation.
func checkPlanOrderIsTotal(t *testing.T, pl *Plan) {
	t.Helper()
	for a := range pl.Iters {
		for k, it := range pl.Iters[a] {
			for i := 1; i < len(it.Pieces); i++ {
				p, q := it.Pieces[i-1], it.Pieces[i]
				if p.Owner > q.Owner || (p.Owner == q.Owner && p.Run.Offset >= q.Run.Offset) {
					t.Fatalf("aggr %d iter %d: pieces %d,%d not strictly ascending by (owner, offset): %v %v", a, k, i-1, i, p, q)
				}
			}
		}
	}
	for o := range pl.expect {
		for i := 1; i < len(pl.expect[o]); i++ {
			p, q := pl.expect[o][i-1], pl.expect[o][i]
			if p.It > q.It || (p.It == q.It && p.Aggr >= q.Aggr) {
				t.Fatalf("owner %d: expect entries %d,%d not strictly ascending by (iter, aggr): %v %v", o, i-1, i, p, q)
			}
		}
	}
}

func TestBuildPlanCoverage(t *testing.T) {
	reqs := [][]layout.Run{
		{{Offset: 0, Length: 100}, {Offset: 300, Length: 50}},
		{{Offset: 150, Length: 100}},
		nil,
		{{Offset: 500, Length: 500}},
	}
	pl := BuildPlan(reqs, []int{0, 2}, 128, 0)
	checkPlanOrderIsTotal(t, pl)
	// Every requested byte appears in exactly one piece.
	covered := map[int64]int{}
	for a := range pl.Iters {
		for k, it := range pl.Iters[a] {
			var lo, hi int64 = -1, -1
			for _, pc := range it.Pieces {
				for b := pc.Run.Offset; b < pc.Run.End(); b++ {
					covered[b]++
				}
				if lo == -1 || pc.Run.Offset < lo {
					lo = pc.Run.Offset
				}
				if pc.Run.End() > hi {
					hi = pc.Run.End()
				}
				// Pieces stay inside the aggregator's domain.
				d := pl.Domains[a]
				if pc.Run.Offset < d.Lo || pc.Run.End() > d.Hi {
					t.Fatalf("aggr %d iter %d piece %v outside domain %v", a, k, pc, d)
				}
			}
			if !it.Empty() && (it.ReadLo != lo || it.ReadHi != hi) {
				t.Fatalf("aggr %d iter %d extent [%d,%d) != pieces [%d,%d)",
					a, k, it.ReadLo, it.ReadHi, lo, hi)
			}
			if it.ReadHi-it.ReadLo > 128 {
				t.Fatalf("aggr %d iter %d extent %d exceeds CB", a, k, it.ReadHi-it.ReadLo)
			}
		}
	}
	var want int64
	for _, rs := range reqs {
		want += layout.TotalLength(rs)
	}
	if int64(len(covered)) != want {
		t.Fatalf("covered %d bytes, want %d", len(covered), want)
	}
	for b, cnt := range covered {
		if cnt != 1 {
			t.Fatalf("byte %d covered %d times", b, cnt)
		}
	}
}

func TestBuildPlanExpectIndexMatchesPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(6)
		reqs := make([][]layout.Run, n)
		for o := range reqs {
			reqs[o] = randRuns(rng, 4096, 8)
		}
		na := 1 + rng.Intn(n)
		pl := BuildPlan(reqs, SpreadAggregators(n, na), 64+int64(rng.Intn(512)), 0)
		checkPlanOrderIsTotal(t, pl)
		// Reconstruct expectations from pieces.
		type key struct{ o, it, a int }
		want := map[key]bool{}
		for a := range pl.Iters {
			for k, it := range pl.Iters[a] {
				for _, pc := range it.Pieces {
					want[key{pc.Owner, k, a}] = true
				}
			}
		}
		got := map[key]bool{}
		for o := 0; o < n; o++ {
			prev := expectEntry{It: -1, Aggr: -1}
			for _, e := range pl.Expect(o) {
				if e.It < prev.It || (e.It == prev.It && e.Aggr <= prev.Aggr) {
					t.Fatalf("expect list for %d not strictly sorted: %v", o, pl.Expect(o))
				}
				prev = e
				got[key{o, e.It, e.Aggr}] = true
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("expect index mismatch: got %d entries, want %d", len(got), len(want))
		}
	}
}

func TestBufPos(t *testing.T) {
	reqs := [][]layout.Run{{{Offset: 10, Length: 5}, {Offset: 20, Length: 5}}}
	pl := BuildPlan(reqs, []int{0}, 64, 0)
	cases := []struct{ off, want int64 }{{off: 10, want: 0}, {off: 14, want: 4}, {off: 20, want: 5}, {off: 24, want: 9}}
	for _, c := range cases {
		if got := pl.BufPos(0, c.off); got != c.want {
			t.Errorf("BufPos(%d) = %d, want %d", c.off, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BufPos outside request did not panic")
		}
	}()
	pl.BufPos(0, 17)
}

func TestDefaultAndSpreadAggregators(t *testing.T) {
	if got := DefaultAggregators(10, 4); !reflect.DeepEqual(got, []int{0, 4, 8}) {
		t.Errorf("DefaultAggregators = %v", got)
	}
	if got := SpreadAggregators(12, 3); !reflect.DeepEqual(got, []int{0, 4, 8}) {
		t.Errorf("SpreadAggregators = %v", got)
	}
	if got := SpreadAggregators(3, 10); len(got) != 3 {
		t.Errorf("SpreadAggregators over-clamped: %v", got)
	}
	if got := SpreadAggregators(5, 0); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("SpreadAggregators k=0: %v", got)
	}
}

func TestCollectiveReadSimple(t *testing.T) {
	perRank := [][]layout.Run{
		{{Offset: 0, Length: 64}},
		{{Offset: 64, Length: 64}},
		{{Offset: 128, Length: 64}},
		{{Offset: 192, Length: 64}},
	}
	for _, pipeline := range []bool{false, true} {
		bufs := runCollectiveRead(t, 4, 4096, perRank, []int{0, 2}, Params{CB: 128, Pipeline: pipeline})
		for i, b := range bufs {
			if !bytes.Equal(b, wantBuf(perRank[i])) {
				t.Fatalf("pipeline=%v rank %d data mismatch", pipeline, i)
			}
		}
	}
}

func TestCollectiveReadInterleaved(t *testing.T) {
	// Round-robin interleaving: the classic non-contiguous pattern.
	const n, chunk, rounds = 6, 16, 20
	perRank := make([][]layout.Run, n)
	for r := 0; r < n; r++ {
		for k := 0; k < rounds; k++ {
			off := int64((k*n + r) * chunk)
			perRank[r] = append(perRank[r], layout.Run{Offset: off, Length: chunk})
		}
	}
	for _, pipeline := range []bool{false, true} {
		bufs := runCollectiveRead(t, n, int64(n*chunk*rounds)+100, perRank, nil,
			Params{CB: 256, Pipeline: pipeline})
		for i, b := range bufs {
			if !bytes.Equal(b, wantBuf(perRank[i])) {
				t.Fatalf("pipeline=%v rank %d mismatch", pipeline, i)
			}
		}
	}
}

// propertyRandomCases are the scenarios of TestCollectiveReadPropertyRandom:
// random requests, random aggregator sets, both protocols, tiny CB (to force
// many iterations).
func propertyRandomCases() []*readCase {
	rng := rand.New(rand.NewSource(99))
	cases := make([]*readCase, 25)
	for iter := range cases {
		rc := &readCase{n: 2 + rng.Intn(7), rpn: 4, fileSize: 1 << 14, stripeSize: 1 << 12}
		rc.perRank = make([][]layout.Run, rc.n)
		for r := range rc.perRank {
			rc.perRank[r] = randRuns(rng, rc.fileSize, 10)
		}
		rc.aggrs = SpreadAggregators(rc.n, 1+rng.Intn(rc.n))
		rc.p = Params{CB: int64(64 + rng.Intn(1000)), Pipeline: rng.Intn(2) == 1}
		cases[iter] = rc
	}
	return cases
}

// Property: every rank gets exactly its bytes.
func TestCollectiveReadPropertyRandom(t *testing.T) {
	for iter, rc := range propertyRandomCases() {
		bufs := runCollectiveRead(t, rc.n, rc.fileSize, rc.perRank, rc.aggrs, rc.p)
		for i, b := range bufs {
			if !bytes.Equal(b, wantBuf(rc.perRank[i])) {
				t.Fatalf("iter %d (n=%d cb=%d pipe=%v aggrs=%v): rank %d mismatch",
					iter, rc.n, rc.p.CB, rc.p.Pipeline, rc.aggrs, i)
			}
		}
	}
}

func TestIndependentReadMatchesCollective(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const fileSize = 1 << 13
	runs := randRuns(rng, fileSize, 12)
	wd := newWorld(1, fileSize, 1<<10)
	buf := make([]byte, layout.TotalLength(runs))
	wd.w.Go(func(r *mpi.Rank) {
		cl := wd.fs.Client(r.Proc(), 0, nil)
		if err := IndependentRead(cl, wd.f, Request{Runs: runs, Buf: buf}, Params{}); err != nil {
			t.Error(err)
		}
	})
	if err := wd.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, wantBuf(runs)) {
		t.Fatal("independent read mismatch")
	}
}

func TestSieveSegments(t *testing.T) {
	runs := []layout.Run{{Offset: 0, Length: 10}, {Offset: 15, Length: 10}, {Offset: 100, Length: 10}}
	got := sieveSegments(runs, 8)
	want := []layout.Run{{Offset: 0, Length: 25}, {Offset: 100, Length: 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sieveSegments = %v, want %v", got, want)
	}
	if got := sieveSegments(runs, 0); len(got) != 3 {
		t.Errorf("threshold 0 coalesced: %v", got)
	}
}

func TestCollectiveWriteRoundTrip(t *testing.T) {
	collectiveWriteRoundTrip(t, func([]byte) {})
}

// TestCollectiveWriteBufferReusableAfterReturn: once CollectiveWrite has
// returned, the caller's buffer is the caller's again. Sends are eager, so an
// owner can return before a remote aggregator has received and unpacked its
// pieces; a message that aliased the buffer would then store whatever the
// caller put there next (here: zeros).
func TestCollectiveWriteBufferReusableAfterReturn(t *testing.T) {
	collectiveWriteRoundTrip(t, func(buf []byte) { clear(buf) })
}

// collectiveWriteRoundTrip writes two runs per rank through two aggregators,
// hands each rank's buffer to afterReturn as soon as its CollectiveWrite has
// returned, and checks the stored bytes.
func collectiveWriteRoundTrip(t *testing.T, afterReturn func(buf []byte)) {
	t.Helper()
	const n = 4
	const fileSize = 4096
	env := sim.NewEnv()
	w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 2})
	fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: 512})
	mem := pfs.NewMemBackend(fileSize)
	// Pre-fill so read-modify-write preservation is observable.
	orig := make([]byte, fileSize)
	for i := range orig {
		orig[i] = byte(i * 3)
	}
	mem.WriteAt(orig, 0)
	f := fs.Create("data", mem, 4, 512, 0)
	c := w.Comm()

	// Each rank writes two runs with holes between ranks' regions.
	perRank := make([][]layout.Run, n)
	for r := 0; r < n; r++ {
		base := int64(r * 1000)
		perRank[r] = []layout.Run{{Offset: base + 10, Length: 100}, {Offset: base + 300, Length: 50}}
	}
	payload := func(r int) []byte {
		b := make([]byte, 150)
		for i := range b {
			b[i] = byte(r*10 + i)
		}
		return b
	}
	w.Go(func(r *mpi.Rank) {
		cl := fs.Client(r.Proc(), r.Rank(), nil)
		buf := payload(r.Rank())
		err := CollectiveWrite(r, c, cl, f, Request{Runs: perRank[r.Rank()], Buf: buf},
			[]int{0, 2}, Params{CB: 256})
		if err != nil {
			t.Error(err)
		}
		afterReturn(buf)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	got := mem.Bytes()
	// Written regions have payload; everything else is untouched.
	expect := append([]byte(nil), orig...)
	for r := 0; r < n; r++ {
		pay := payload(r)
		pos := 0
		for _, run := range perRank[r] {
			copy(expect[run.Offset:run.End()], pay[pos:pos+int(run.Length)])
			pos += int(run.Length)
		}
	}
	if !bytes.Equal(got, expect) {
		for i := range got {
			if got[i] != expect[i] {
				t.Fatalf("first mismatch at byte %d: got %d want %d", i, got[i], expect[i])
			}
		}
	}
}

// Collective read of an interleaved pattern must beat independent reads of
// the same pattern — the premise of two-phase I/O.
func TestCollectiveBeatsIndependentOnInterleaved(t *testing.T) {
	const n, chunk, rounds = 8, 256, 50
	perRank := make([][]layout.Run, n)
	for r := 0; r < n; r++ {
		for k := 0; k < rounds; k++ {
			perRank[r] = append(perRank[r], layout.Run{Offset: int64((k*n + r) * chunk), Length: chunk})
		}
	}
	fileSize := int64(n*chunk*rounds) + 10

	timeOf := func(collective bool) float64 {
		wd := newWorld(n, fileSize, 1<<14)
		wd.w.Go(func(r *mpi.Rank) {
			runs := perRank[r.Rank()]
			buf := make([]byte, layout.TotalLength(runs))
			cl := wd.fs.Client(r.Proc(), r.Rank(), nil)
			if collective {
				if err := CollectiveRead(r, wd.c, cl, wd.f, Request{Runs: runs, Buf: buf}, nil, Params{CB: 64 << 10}); err != nil {
					t.Error(err)
				}
			} else {
				if err := IndependentRead(cl, wd.f, Request{Runs: runs, Buf: buf}, Params{SieveThreshold: 0}); err != nil {
					t.Error(err)
				}
			}
		})
		if err := wd.env.Run(); err != nil {
			t.Fatal(err)
		}
		return wd.env.Now()
	}
	coll, indep := timeOf(true), timeOf(false)
	if coll >= indep {
		t.Fatalf("collective (%gs) not faster than independent (%gs)", coll, indep)
	}
}

// The pipelined protocol must not be slower than blocking for a large
// multi-iteration read.
func TestPipelineOverlapHelps(t *testing.T) {
	const n = 4
	perRank := make([][]layout.Run, n)
	for r := 0; r < n; r++ {
		for k := 0; k < 64; k++ {
			perRank[r] = append(perRank[r], layout.Run{Offset: int64((k*n + r) * 1024), Length: 1024})
		}
	}
	fileSize := int64(n * 64 * 1024)
	timeOf := func(pipeline bool) float64 {
		wd := newWorld(n, fileSize, 1<<12)
		wd.w.Go(func(r *mpi.Rank) {
			runs := perRank[r.Rank()]
			buf := make([]byte, layout.TotalLength(runs))
			cl := wd.fs.Client(r.Proc(), r.Rank(), nil)
			if err := CollectiveRead(r, wd.c, cl, wd.f, Request{Runs: runs, Buf: buf}, []int{0},
				Params{CB: 8 << 10, Pipeline: pipeline}); err != nil {
				t.Error(err)
			}
		})
		if err := wd.env.Run(); err != nil {
			t.Fatal(err)
		}
		return wd.env.Now()
	}
	blocking, pipelined := timeOf(false), timeOf(true)
	if pipelined > blocking {
		t.Fatalf("pipelined (%g) slower than blocking (%g)", pipelined, blocking)
	}
}

// The IterHook must observe every requested byte exactly once with correct
// contents, and suppression must keep buffers unfilled.
func TestCollectiveReadHook(t *testing.T) {
	const n = 3
	perRank := [][]layout.Run{
		{{Offset: 0, Length: 50}, {Offset: 100, Length: 50}},
		{{Offset: 200, Length: 100}},
		{{Offset: 50, Length: 25}},
	}
	fileSize := int64(1024)
	wd := newWorld(n, fileSize, 1<<10)
	seen := map[int64][]byte{} // piece offset -> data
	wd.w.Go(func(r *mpi.Rank) {
		runs := perRank[r.Rank()]
		cl := wd.fs.Client(r.Proc(), r.Rank(), nil)
		hooks := &Hooks{
			SuppressShuffle: true,
			Transform: func(aggrIdx, iter int, it *Iter, ext []byte) map[int]Payload {
				for _, pc := range it.Pieces {
					d := make([]byte, pc.Run.Length)
					copy(d, ext[pc.Run.Offset-it.ReadLo:])
					seen[pc.Run.Offset] = d
				}
				return nil
			},
		}
		err := CollectiveReadHooked(r, wd.c, cl, wd.f, Request{Runs: runs}, []int{0, 1},
			Params{CB: 64}, hooks)
		if err != nil {
			t.Error(err)
		}
	})
	if err := wd.env.Run(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for off, d := range seen {
		total += int64(len(d))
		if !bytes.Equal(d, patternBytes(layout.Run{Offset: off, Length: int64(len(d))})) {
			t.Fatalf("hook saw wrong bytes at %d", off)
		}
	}
	var want int64
	for _, rs := range perRank {
		want += layout.TotalLength(rs)
	}
	if total != want {
		t.Fatalf("hook saw %d bytes, want %d", total, want)
	}
}

func TestEmptyRequestsAllRanks(t *testing.T) {
	perRank := make([][]layout.Run, 3)
	bufs := runCollectiveRead(t, 3, 1024, perRank, nil, Params{})
	for i, b := range bufs {
		if len(b) != 0 {
			t.Fatalf("rank %d buffer %d bytes", i, len(b))
		}
	}
}

func TestOneRankEmptyRequest(t *testing.T) {
	perRank := [][]layout.Run{
		{{Offset: 0, Length: 100}},
		nil,
		{{Offset: 200, Length: 100}},
	}
	bufs := runCollectiveRead(t, 3, 1024, perRank, []int{1}, Params{CB: 64})
	for i, b := range bufs {
		if !bytes.Equal(b, wantBuf(perRank[i])) {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}

func TestPlanPanicsOnBadInputs(t *testing.T) {
	for i, fn := range []func(){
		func() { BuildPlan(nil, nil, 64, 0) },
		func() { BuildPlan(nil, []int{0}, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPlanAlignment(t *testing.T) {
	reqs := [][]layout.Run{{{Offset: 0, Length: 1000}}, {{Offset: 1000, Length: 1000}}}
	pl := BuildPlan(reqs, []int{0, 1}, 256, 512)
	if pl.Domains[0].Hi%512 != 0 {
		t.Errorf("domain boundary %d not aligned to 512", pl.Domains[0].Hi)
	}
}

func BenchmarkBuildPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	reqs := make([][]layout.Run, n)
	for o := range reqs {
		reqs[o] = randRuns(rng, 1<<24, 200)
	}
	aggrs := SpreadAggregators(n, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := BuildPlan(reqs, aggrs, 4<<20, 0)
		if pl.MaxIters == 0 {
			b.Fatal("empty plan")
		}
	}
}

func BenchmarkCollectiveRead64Ranks(b *testing.B) {
	const n, chunk, rounds = 64, 512, 16
	perRank := make([][]layout.Run, n)
	for r := 0; r < n; r++ {
		for k := 0; k < rounds; k++ {
			perRank[r] = append(perRank[r], layout.Run{Offset: int64((k*n + r) * chunk), Length: chunk})
		}
	}
	fileSize := int64(n * chunk * rounds)
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 8})
		fs := pfs.New(env, pfs.Params{NumOSTs: 8, DefaultStripeSize: 1 << 16})
		f := fs.Create("data", pfs.NewSynthBackend(fileSize, func(int64, []byte) {}), 8, 1<<16, 0)
		c := w.Comm()
		w.Go(func(r *mpi.Rank) {
			runs := perRank[r.Rank()]
			buf := make([]byte, layout.TotalLength(runs))
			cl := fs.Client(r.Proc(), r.Rank(), nil)
			if err := CollectiveRead(r, c, cl, f, Request{Runs: runs, Buf: buf}, nil, Params{CB: 64 << 10, Pipeline: true}); err != nil {
				b.Error(err)
			}
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// Transformed shuffle: payloads replace raw data and arrive at the right
// owners via OnRecv, in both blocking and pipelined modes.
func TestCollectiveReadTransformedShuffle(t *testing.T) {
	const n = 4
	perRank := [][]layout.Run{
		{{Offset: 0, Length: 64}},
		{{Offset: 64, Length: 64}},
		{{Offset: 128, Length: 64}},
		{{Offset: 192, Length: 64}},
	}
	for _, pipeline := range []bool{false, true} {
		wd := newWorld(n, 1024, 1<<10)
		gotBytes := make([]int64, n) // per owner, payload bytes delivered
		gotSum := make([]int64, n)
		wd.w.Go(func(r *mpi.Rank) {
			me := r.Rank()
			runs := perRank[me]
			cl := wd.fs.Client(r.Proc(), me, nil)
			hooks := &Hooks{
				Transform: func(aggrIdx, iter int, it *Iter, ext []byte) map[int]Payload {
					out := map[int]Payload{}
					for _, pc := range it.Pieces {
						// Partial result: sum of this owner's piece bytes.
						var sum int64
						for _, b := range ext[pc.Run.Offset-it.ReadLo : pc.Run.End()-it.ReadLo] {
							sum += int64(b)
						}
						p := out[pc.Owner]
						if p.Data == nil {
							p.Data = int64(0)
						}
						p.Data = p.Data.(int64) + sum
						p.Bytes = 8
						out[pc.Owner] = p
					}
					return out
				},
				OnRecv: func(src, owner int, payload interface{}, bytes int64) {
					gotBytes[owner] += bytes
					gotSum[owner] += payload.(int64)
				},
			}
			err := CollectiveReadHooked(r, wd.c, cl, wd.f, Request{Runs: runs}, []int{0, 2},
				Params{CB: 128, Pipeline: pipeline}, hooks)
			if err != nil {
				t.Error(err)
			}
		})
		if err := wd.env.Run(); err != nil {
			t.Fatal(err)
		}
		for o := range gotBytes {
			if gotBytes[o] != 8 { // one iteration of one aggregator per owner
				t.Fatalf("pipeline=%v owner %d received %d payload bytes, want 8",
					pipeline, o, gotBytes[o])
			}
			var want int64
			for _, b := range wantBuf(perRank[o]) {
				want += int64(b)
			}
			if gotSum[o] != want {
				t.Fatalf("pipeline=%v owner %d partial sum %d, want %d", pipeline, o, gotSum[o], want)
			}
		}
	}
}

// Property: random per-rank write requests over a known original file leave
// exactly the written bytes changed and everything else intact, across
// aggregator counts and buffer sizes — whether the ranks keep their buffers
// (remote pieces are packed) or donate them (remote pieces are referred to),
// and at the same virtual makespan either way.
func TestCollectiveWritePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 12; iter++ {
		n := 2 + rng.Intn(5)
		const fileSize = 1 << 13
		orig := make([]byte, fileSize)
		pattern(0, orig)

		// Random disjoint regions per rank: slice the file into n bands and
		// generate runs inside each band so ranks never overlap.
		band := int64(fileSize / n)
		perRank := make([][]layout.Run, n)
		payloads := make([][]byte, n)
		for me := 0; me < n; me++ {
			base := int64(me) * band
			runs := randRuns(rng, band-1, 6)
			for i := range runs {
				runs[i].Offset += base
			}
			perRank[me] = runs
			buf := make([]byte, layout.TotalLength(runs))
			rng.Read(buf)
			payloads[me] = buf
		}
		aggrs := SpreadAggregators(n, 1+rng.Intn(n))
		cb := int64(128 + rng.Intn(2048))
		expect := append([]byte(nil), orig...)
		for me := 0; me < n; me++ {
			pos := int64(0)
			for _, run := range perRank[me] {
				copy(expect[run.Offset:run.End()], payloads[me][pos:pos+run.Length])
				pos += run.Length
			}
		}

		var makespans [2]float64
		for i, donated := range []bool{false, true} {
			env := sim.NewEnv()
			w := mpi.NewWorld(env, n, fabric.Params{RanksPerNode: 2})
			fs := pfs.New(env, pfs.Params{NumOSTs: 4, DefaultStripeSize: 1 << 10})
			mem := pfs.NewMemBackend(fileSize)
			mem.WriteAt(orig, 0)
			f := fs.Create("data", mem, 4, 1<<10, 0)
			c := w.Comm()
			w.Go(func(r *mpi.Rank) {
				cl := fs.Client(r.Proc(), r.Rank(), nil)
				err := CollectiveWrite(r, c, cl, f,
					Request{Runs: perRank[r.Rank()], Buf: payloads[r.Rank()], Donated: donated}, aggrs, Params{CB: cb})
				if err != nil {
					t.Error(err)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			makespans[i] = env.Now()
			if !bytes.Equal(mem.Bytes(), expect) {
				for i := range expect {
					if mem.Bytes()[i] != expect[i] {
						t.Fatalf("iter %d (n=%d cb=%d aggrs=%v donated=%v): first mismatch at byte %d",
							iter, n, cb, aggrs, donated, i)
					}
				}
			}
		}
		if makespans[0] != makespans[1] {
			t.Fatalf("iter %d: makespan %v with kept buffers, %v with donated ones", iter, makespans[0], makespans[1])
		}
	}
}
