package mpi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
)

// harness runs main on n ranks and fails the test on deadlock.
func harness(t *testing.T, n int, p fabric.Params, main func(r *Rank)) *World {
	t.Helper()
	env := sim.NewEnv()
	w := NewWorld(env, n, p)
	w.Go(main)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSendRecv(t *testing.T) {
	var got interface{}
	var gotAt float64
	harness(t, 2, fabric.Params{}, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 7, "payload", 1024)
		} else {
			got, _ = r.Recv(0, 7)
			gotAt = r.Now()
		}
	})
	if got != "payload" {
		t.Fatalf("got %v", got)
	}
	if gotAt <= 0 {
		t.Fatal("transfer took no virtual time")
	}
}

func TestLargerMessagesTakeLonger(t *testing.T) {
	timeFor := func(bytes int64) float64 {
		var at float64
		harness(t, 25, fabric.Params{RanksPerNode: 24}, func(r *Rank) {
			switch r.Rank() {
			case 0:
				r.Send(24, 0, nil, bytes) // inter-node
			case 24:
				r.Recv(0, 0)
				at = r.Now()
			}
		})
		return at
	}
	small, big := timeFor(1<<10), timeFor(1<<24)
	if big <= small {
		t.Fatalf("16MB (%g) not slower than 1KB (%g)", big, small)
	}
}

func TestTagMatching(t *testing.T) {
	var first, second interface{}
	harness(t, 2, fabric.Params{}, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 1, "one", 8)
			r.Send(1, 2, "two", 8)
		} else {
			// Receive out of tag order.
			second, _ = r.Recv(0, 2)
			first, _ = r.Recv(0, 1)
		}
	})
	if first != "one" || second != "two" {
		t.Fatalf("first=%v second=%v", first, second)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	var order []string
	harness(t, 2, fabric.Params{}, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, "a", 8)
			r.Send(1, 0, "b", 8)
		} else {
			x, _ := r.Recv(0, 0)
			y, _ := r.Recv(0, 0)
			order = []string{x.(string), y.(string)}
		}
	})
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	seen := map[string]bool{}
	harness(t, 3, fabric.Params{}, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 2; i++ {
				v, _ := r.Recv(AnySource, AnyTag)
				seen[v.(string)] = true
			}
		} else {
			r.Send(0, r.Rank()*10, fmt.Sprintf("from%d", r.Rank()), 8)
		}
	})
	if !seen["from1"] || !seen["from2"] {
		t.Fatalf("seen = %v", seen)
	}
}

func TestIrecvBeforeSend(t *testing.T) {
	var got interface{}
	harness(t, 2, fabric.Params{}, func(r *Rank) {
		if r.Rank() == 1 {
			req := r.Irecv(0, 5)
			got, _ = r.Wait(req)
		} else {
			r.Proc().Sleep(1)
			r.Send(1, 5, 42, 8)
		}
	})
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestWaitTwicePanics(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.Params{})
	var panicked bool
	w.Go(func(r *Rank) {
		if r.Rank() == 0 {
			req := r.Isend(1, 0, nil, 0)
			r.Wait(req)
			func() {
				defer func() { panicked = recover() != nil }()
				r.Wait(req)
			}()
		} else {
			r.Recv(0, 0)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("double Wait did not panic")
	}
}

func TestDeadlockReported(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.Params{})
	w.Go(func(r *Rank) {
		if r.Rank() == 0 {
			r.Recv(1, 0) // never sent
		}
	})
	if _, ok := env.Run().(*sim.DeadlockError); !ok {
		t.Fatal("expected DeadlockError")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 7
	after := make([]float64, n)
	env := sim.NewEnv()
	w := NewWorld(env, n, fabric.Params{RanksPerNode: 2})
	c := w.Comm()
	w.Go(func(r *Rank) {
		r.Proc().Sleep(float64(r.Rank())) // stagger arrivals: slowest at t=6
		c.Barrier(r)
		after[r.Rank()] = r.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, a := range after {
		if a < 6 {
			t.Fatalf("rank %d left the barrier at %g, before the last arrival at 6", i, a)
		}
	}
}

func TestBcastAllRoots(t *testing.T) {
	const n = 9
	for root := 0; root < n; root += 3 {
		got := make([]interface{}, n)
		env := sim.NewEnv()
		w := NewWorld(env, n, fabric.Params{RanksPerNode: 3})
		c := w.Comm()
		w.Go(func(r *Rank) {
			var v interface{}
			if c.RankOf(r) == root {
				v = "gold"
			}
			got[r.Rank()] = c.Bcast(r, root, v, 100)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != "gold" {
				t.Fatalf("root %d: rank %d got %v", root, i, v)
			}
		}
	}
}

func sumOp(a, b interface{}) interface{} { return a.(int) + b.(int) }

func TestReduceAllSizesAndRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16} {
		for _, root := range []int{0, n - 1, n / 2} {
			var got interface{}
			env := sim.NewEnv()
			w := NewWorld(env, n, fabric.Params{RanksPerNode: 4})
			c := w.Comm()
			w.Go(func(r *Rank) {
				v := c.Reduce(r, root, r.Rank()+1, 8, sumOp)
				if c.RankOf(r) == root {
					got = v
				} else if v != nil {
					t.Errorf("n=%d root=%d: non-root %d got %v", n, root, r.Rank(), v)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			want := n * (n + 1) / 2
			if got != want {
				t.Fatalf("n=%d root=%d: sum = %v, want %d", n, root, got, want)
			}
		}
	}
}

func TestAllreduce(t *testing.T) {
	const n = 6
	got := make([]interface{}, n)
	harnessComm(t, n, func(c *Comm, r *Rank) {
		got[r.Rank()] = c.Allreduce(r, r.Rank()+1, 8, sumOp)
	})
	for i, v := range got {
		if v != n*(n+1)/2 {
			t.Fatalf("rank %d allreduce = %v", i, v)
		}
	}
}

func harnessComm(t *testing.T, n int, main func(c *Comm, r *Rank)) {
	t.Helper()
	env := sim.NewEnv()
	w := NewWorld(env, n, fabric.Params{RanksPerNode: 4})
	c := w.Comm()
	w.Go(func(r *Rank) { main(c, r) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const n, root = 5, 2
	var got []int
	harnessComm(t, n, func(c *Comm, r *Rank) {
		out := Gatherv(c, r, root, r.Rank()*r.Rank(), []int64{8, 16, 24, 32, 40})
		if r.Rank() == root {
			got = out
		} else if out != nil {
			t.Errorf("non-root got %v", out)
		}
	})
	if len(got) != n {
		t.Fatalf("root gathered %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %v, want %d", i, v, i*i)
		}
	}
}

// TestAllgather: every member returns the values in comm-rank order, and
// the one slice the root built, not a copy of its own.
func TestAllgather(t *testing.T) {
	const n = 4
	all := make([][]string, n)
	allv := make([][]string, n)
	harnessComm(t, n, func(c *Comm, r *Rank) {
		me := fmt.Sprintf("r%d", r.Rank())
		all[r.Rank()] = Allgather(c, r, me, 16)
		allv[r.Rank()] = Allgatherv(c, r, me, []int64{8, 16, 24, 32})
	})
	for _, got := range [][][]string{all, allv} {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got[i][j] != fmt.Sprintf("r%d", j) {
					t.Fatalf("all[%d][%d] = %v", i, j, got[i][j])
				}
			}
			if &got[i][0] != &got[0][0] {
				t.Fatalf("member %d returned its own copy of the gathered slice", i)
			}
		}
	}
}

func TestSubCommunicator(t *testing.T) {
	const n = 8
	members := []int{1, 3, 5, 7}
	var got interface{}
	env := sim.NewEnv()
	w := NewWorld(env, n, fabric.Params{RanksPerNode: 4})
	sub := w.SubNS(0, members)
	w.Go(func(r *Rank) {
		if sub.RankOf(r) < 0 {
			if r.Rank()%2 == 1 {
				t.Errorf("member %d has no comm rank", r.Rank())
			}
			return
		}
		v := sub.Reduce(r, 0, r.Rank(), 8, sumOp)
		if sub.RankOf(r) == 0 {
			got = v
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1+3+5+7 {
		t.Fatalf("sub reduce = %v, want 16", got)
	}
	if sub.WorldRank(2) != 5 {
		t.Fatalf("WorldRank(2) = %d, want 5", sub.WorldRank(2))
	}
}

// Collectives on two different comms in flight must not cross-match.
func TestCommTagIsolation(t *testing.T) {
	const n = 4
	env := sim.NewEnv()
	w := NewWorld(env, n, fabric.Params{RanksPerNode: 4})
	world := w.Comm()
	evens := w.SubNS(0, []int{0, 2})
	sums := make([]interface{}, n)
	w.Go(func(r *Rank) {
		if evens.RankOf(r) >= 0 {
			evens.Barrier(r)
		}
		sums[r.Rank()] = world.Allreduce(r, 1, 8, sumOp)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if s != n {
			t.Fatalf("rank %d allreduce = %v, want %d", i, s, n)
		}
	}
}

// Property test: random sequences of collectives agree with their sequential
// definitions.
func TestCollectivesPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(12)
		root := rng.Intn(n)
		vals := make([]int, n)
		want := 0
		for i := range vals {
			vals[i] = rng.Intn(1000)
			want += vals[i]
		}
		var reduced, bcasted interface{}
		gathered := make([][]int, n)
		env := sim.NewEnv()
		w := NewWorld(env, n, fabric.Params{RanksPerNode: 1 + rng.Intn(8)})
		c := w.Comm()
		w.Go(func(r *Rank) {
			me := r.Rank()
			if v := c.Reduce(r, root, vals[me], 8, sumOp); me == root {
				reduced = v
			}
			var b interface{}
			if me == root {
				b = "blob"
			}
			if v := c.Bcast(r, root, b, 32); me == (root+1)%n {
				bcasted = v
			}
			gathered[me] = Allgather(c, r, vals[me], 8)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if reduced != want {
			t.Fatalf("n=%d root=%d: reduce = %v, want %d", n, root, reduced, want)
		}
		if bcasted != "blob" {
			t.Fatalf("n=%d root=%d: bcast = %v", n, root, bcasted)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if gathered[i][j] != vals[j] {
					t.Fatalf("allgather[%d][%d] = %v, want %d", i, j, gathered[i][j], vals[j])
				}
			}
		}
	}
}

func TestComputeAdvancesClockAndTraces(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 1, fabric.Params{})
	rt := obs.NewRankTime(1)
	w.SetRankTime(rt)
	var at float64
	w.Go(func(r *Rank) {
		r.Compute(2.5)
		r.Compute(0)  // no-op
		r.Compute(-1) // no-op
		r.Sys(0.5)
		at = r.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3.0 {
		t.Fatalf("clock = %g, want 3.0", at)
	}
	if u, s := rt.RankTotal(0, obs.Compute), rt.RankTotal(0, obs.Sys); u != 2.5 || s != 0.5 {
		t.Fatalf("rank time user %gs sys %gs, want 2.5s and 0.5s", u, s)
	}
	if io, comm := rt.RankTotal(0, obs.WaitIO), rt.RankTotal(0, obs.WaitComm); io != 0 || comm != 0 {
		t.Fatalf("rank time wait-io %gs wait-comm %gs, want none", io, comm)
	}
}

func TestRecvWaitTimeTraced(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.Params{RanksPerNode: 1})
	rt := obs.NewRankTime(2)
	w.SetRankTime(rt)
	w.Go(func(r *Rank) {
		if r.Rank() == 0 {
			r.Proc().Sleep(5)
			r.Send(1, 0, nil, 1<<20)
		} else {
			r.Recv(0, 0)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The receiver blocks for the sender's 5 s sleep plus the transfer; the
	// sender never waits on a message.
	if got := rt.RankTotal(1, obs.WaitComm); got <= 5 {
		t.Fatalf("blocking recv recorded %gs of WaitComm on rank 1, want > 5s", got)
	}
	if got := rt.RankTotal(0, obs.WaitComm); got != 0 {
		t.Fatalf("sender recorded %gs of WaitComm", got)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(sim.NewEnv(), 0, fabric.Params{})
}

func BenchmarkAllreduce64Ranks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		w := NewWorld(env, 64, fabric.Params{RanksPerNode: 8})
		c := w.Comm()
		w.Go(func(r *Rank) {
			c.Allreduce(r, 1, 8, sumOp)
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNetworkTrafficStats(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 4, fabric.Params{RanksPerNode: 2})
	w.Go(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, nil, 100) // intra-node
			r.Send(2, 0, nil, 200) // inter-node
		}
		switch r.Rank() {
		case 1:
			r.Recv(0, 0)
		case 2:
			r.Recv(0, 0)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	n := w.Net()
	if n.BytesIntra != 100 || n.BytesOnWire != 200 {
		t.Fatalf("traffic: intra %d wire %d", n.BytesIntra, n.BytesOnWire)
	}
	if n.Messages < 2 || n.InterMessages < 1 {
		t.Fatalf("counts: %d/%d", n.Messages, n.InterMessages)
	}
}

func TestWaitWrongOwnerPanics(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.Params{})
	var panicked bool
	reqCh := make(chan *Request, 1)
	w.Go(func(r *Rank) {
		if r.Rank() == 0 {
			req := r.Irecv(1, 0)
			reqCh <- req
			r.Proc().Sleep(1)
			func() {
				defer func() { _ = recover() }()
				r.Wait(req) // completes normally after the send below
			}()
		} else {
			// Steal rank 0's request and Wait on it: must panic.
			req := <-reqCh
			func() {
				defer func() { panicked = recover() != nil }()
				r.Wait(req)
			}()
			r.Send(0, 0, "x", 8)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("foreign Wait did not panic")
	}
}
