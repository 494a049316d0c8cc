package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// --- event queue edge cases ---

// TestEventQueuePopOrderMatchesSort pushes events with random (often
// colliding) timestamps in random order and checks that pop order is exactly
// the (t, seq) sort — the total order the kernel's determinism rests on.
func TestEventQueuePopOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	p := &Proc{}
	type key struct {
		t   float64
		seq uint64
	}
	keys := make([]key, 500)
	for i := range keys {
		keys[i] = key{t: float64(rng.Intn(40)), seq: uint64(i)}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		q.push(event{t: k.t, seq: k.seq, p: p})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].t != keys[j].t {
			return keys[i].t < keys[j].t
		}
		return keys[i].seq < keys[j].seq
	})
	for i, k := range keys {
		ev := q.pop()
		if ev.t != k.t || ev.seq != k.seq {
			t.Fatalf("pop %d = (t=%g seq=%d), want (t=%g seq=%d)", i, ev.t, ev.seq, k.t, k.seq)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
}

// TestEventQueueSameTimestampFIFO checks that events pushed at one timestamp
// pop in push (seq) order regardless of interleaved earlier/later times.
func TestEventQueueSameTimestampFIFO(t *testing.T) {
	var q eventQueue
	p := &Proc{}
	// Interleave t=5 events with others so the heap actually reshuffles.
	seq := uint64(0)
	var want []uint64
	for i := 0; i < 50; i++ {
		seq++
		q.push(event{t: 5, seq: seq, p: p})
		want = append(want, seq)
		seq++
		q.push(event{t: float64(10 + i), seq: seq, p: p})
	}
	for i, w := range want {
		ev := q.pop()
		if ev.t != 5 || ev.seq != w {
			t.Fatalf("pop %d = (t=%g seq=%d), want (t=5 seq=%d)", i, ev.t, ev.seq, w)
		}
	}
}

// TestEventQueuePopEmptyPanics documents that draining past empty is a kernel
// bug, not a silent zero value.
func TestEventQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("pop from empty queue did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "pop from empty") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	var q eventQueue
	q.pop()
}

// TestStaleTimerCancelledByGen checks the lazy-cancellation contract: a
// receiver parked with a timer that is overtaken by an earlier delivery must
// wake at the earlier time, and the superseded timer must be discarded at pop
// time (counted by SkippedWakeups), not dispatched.
func TestStaleTimerCancelledByGen(t *testing.T) {
	e := NewEnv()
	mb := NewMailbox[int](e, "mb")
	var got []float64
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 2; i++ {
			m := mb.Recv(p)
			got = append(got, p.Now(), float64(m.Payload))
		}
	})
	e.Spawn("send", func(p *Proc) {
		mb.Send(1, 0, 10) // receiver parks a timer at t=10
		p.SleepUntil(1)
		mb.Send(2, 0, 2) // overtakes: ready at t=2, re-parks timer at t=2
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 2, 10, 1}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.SkippedWakeups() == 0 {
		t.Fatal("superseded timer was not lazily discarded (SkippedWakeups = 0)")
	}
}

// TestSkippedWakeupsCountsFinishedProc checks that wake-ups scheduled for a
// process that has since finished are discarded, not dispatched.
func TestSkippedWakeupsCountsFinishedProc(t *testing.T) {
	e := NewEnv()
	var p1 *Proc
	p1 = e.Spawn("short", func(p *Proc) {})
	// Schedule a resume for p1 far in the future; by then it has finished.
	e.At(0, func() { e.schedule(5, p1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.SkippedWakeups() == 0 {
		t.Fatal("wake-up for finished process was not discarded")
	}
}

// --- deadlock reporting (satellite: richer DeadlockError) ---

func TestDeadlockErrorContent(t *testing.T) {
	e := NewEnv()
	e.Spawn("first", func(p *Proc) {
		p.SleepUntil(3)
		p.Block("waiting for godot")
	})
	e.Spawn("second", func(p *Proc) {
		p.SleepUntil(7)
		p.Block("waiting for first")
	})
	err := e.Run()
	d, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if d.Count != 2 {
		t.Fatalf("Count = %d, want 2", d.Count)
	}
	if d.EarliestParked != 3 {
		t.Fatalf("EarliestParked = %g, want 3", d.EarliestParked)
	}
	if d.Waiting["first"] != "waiting for godot" || d.Waiting["second"] != "waiting for first" {
		t.Fatalf("Waiting = %v", d.Waiting)
	}
	msg := d.Error()
	for _, frag := range []string{
		"2 process(es) blocked",
		"earliest parked at t=3",
		"[first: waiting for godot]",
		"[second: waiting for first]",
	} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("error message %q missing %q", msg, frag)
		}
	}
}

// --- the coroutine hand-off at its edges ---

// TestProcPanicReachesRunCaller: a panic in a process body unwinds out of
// Run, in Run's caller, carrying its value — not out of a foreign goroutine
// where nothing could recover it.
func TestProcPanicReachesRunCaller(t *testing.T) {
	type boom struct{ at float64 }
	e := NewEnv()
	e.Spawn("bystander", func(p *Proc) { p.Sleep(5) })
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(2)
		panic(boom{p.Now()})
	})
	defer func() {
		if r := recover(); r != (boom{2}) {
			t.Fatalf("recovered %#v from Run, want %#v", r, boom{2})
		}
	}()
	err := e.Run()
	t.Fatalf("Run returned %v past a panicking process", err)
}

// TestProcGoexitEndsRunGoroutine: runtime.Goexit in a process body (what
// t.FailNow does) ends the goroutine that called Run, deferred calls
// included, instead of leaving it waiting for a process that will never
// hand control back.
func TestProcGoexitEndsRunGoroutine(t *testing.T) {
	done := make(chan struct{})
	returned := false
	go func() {
		defer close(done)
		e := NewEnv()
		e.Spawn("bystander", func(p *Proc) { p.Sleep(5) })
		e.Spawn("quitter", func(p *Proc) {
			p.Sleep(2)
			runtime.Goexit()
		})
		e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run's goroutine is still alive 10 s after a process called Goexit")
	}
	if returned {
		t.Fatal("Run returned normally past a process that called Goexit")
	}
}

// TestSpawnStartsNowInSeqOrder: a process spawned from inside a process or
// from an At callback starts at the instant it was spawned, after everything
// already queued for that instant and before anything queued later.
func TestSpawnStartsNowInSeqOrder(t *testing.T) {
	e := NewEnv()
	var order []string
	mark := func(s string, now float64) { order = append(order, fmt.Sprintf("%s@%g", s, now)) }
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(2)
		e.Spawn("child", func(c *Proc) { mark("child", c.Now()) })
		e.At(p.Now(), func() {
			mark("callback", e.Now())
			e.Spawn("grandchild", func(c *Proc) { mark("grandchild", c.Now()) })
		})
		e.Spawn("sibling", func(c *Proc) { mark("sibling", c.Now()) })
		mark("parent", p.Now()) // spawning does not yield
	})
	e.Spawn("peer", func(p *Proc) { // queued for t=2 before parent spawns anything
		p.Sleep(2)
		mark("peer", p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, " ")
	want := "parent@2 peer@2 child@2 callback@2 sibling@2 grandchild@2"
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// --- steady-state allocation contracts (gated in nightly CI) ---

// TestSleepSwitchZeroAlloc: a virtual context switch between two live
// processes (park one, pop the other's wake-up, resume it, and back) touches
// no allocator once the event queue has its capacity.
func TestSleepSwitchZeroAlloc(t *testing.T) {
	e := NewEnv()
	measuring := true
	e.Spawn("other", func(p *Proc) {
		for measuring {
			p.Sleep(1)
		}
	})
	n := -1.0
	e.Spawn("measured", func(p *Proc) {
		n = testing.AllocsPerRun(1000, func() { p.Sleep(1) })
		measuring = false
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("a Sleep switch between two live processes allocates %v per op, want 0", n)
	}
}

func TestEventQueueSteadyStateZeroAlloc(t *testing.T) {
	var q eventQueue
	p := &Proc{}
	for i := 0; i < 128; i++ {
		q.push(event{t: float64(i % 17), seq: uint64(i), p: p})
	}
	seq := uint64(128)
	n := testing.AllocsPerRun(1000, func() {
		seq++
		q.push(event{t: float64(seq % 97), seq: seq, p: p})
		q.pop()
	})
	if n != 0 {
		t.Fatalf("event push/pop allocates %v per op in steady state, want 0", n)
	}
}

func TestMailboxSteadyStateZeroAlloc(t *testing.T) {
	e := NewEnv()
	mb := NewMailbox[int](e, "za")
	for i := 0; i < 64; i++ {
		mb.Send(i, 8, 0)
	}
	n := testing.AllocsPerRun(1000, func() {
		mb.Send(1, 8, 0)
		if _, ok := mb.TryRecv(); !ok {
			panic("no message ready")
		}
	})
	if n != 0 {
		t.Fatalf("mailbox send/tryrecv allocates %v per op in steady state, want 0", n)
	}
	// Recv of a ready message is the same fast path with a process attached:
	// it must not build the Block reason it will not use.
	e.Spawn("recv", func(p *Proc) {
		n = testing.AllocsPerRun(1000, func() {
			mb.Send(1, 8, 0)
			mb.Recv(p)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("mailbox send/recv of a ready message allocates %v per op, want 0", n)
	}
}

// --- microbenchmarks ---

// BenchmarkEventQueuePushPop measures the typed 4-ary event heap over a
// standing queue of 256 events.
func BenchmarkEventQueuePushPop(b *testing.B) {
	var q eventQueue
	p := &Proc{}
	for i := 0; i < 256; i++ {
		q.push(event{t: float64(i % 37), seq: uint64(i), p: p})
	}
	seq := uint64(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		q.push(event{t: float64(seq % 53), seq: seq, p: p})
		q.pop()
	}
}

// BenchmarkMailboxSendRecv measures the typed mailbox heap: one queued send
// and one ready receive per op over a standing queue of 64 messages.
func BenchmarkMailboxSendRecv(b *testing.B) {
	e := NewEnv()
	mb := NewMailbox[int](e, "bench")
	for i := 0; i < 64; i++ {
		mb.Send(i, 8, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.Send(i, 8, 0)
		if _, ok := mb.TryRecv(); !ok {
			b.Fatal("no message ready")
		}
	}
}

// BenchmarkMailboxPingPong measures full scheduler round-trips: every message
// parks the receiver and wakes it through the event queue.
func BenchmarkMailboxPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	mb := NewMailbox[int](e, "pingpong")
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mb.Send(i, 8, float64(i)+0.5)
			p.SleepUntil(float64(i) + 1)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mb.Recv(p)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
