package cluster

import (
	"math/rand"
	"testing"
)

// pendModel is the reference implementation the tombstoned queue must match:
// a plain slice in arrival order with search-and-splice removal, plus the
// count of tail entries Arrivals has not reported yet.
type pendModel struct {
	jobs  []*JobResult
	fresh int
}

func (m *pendModel) push(jr *JobResult) { m.jobs = append(m.jobs, jr); m.fresh++ }
func (m *pendModel) Len() int           { return len(m.jobs) }
func (m *pendModel) remove(jr *JobResult) {
	for i, x := range m.jobs {
		if x == jr {
			if i >= len(m.jobs)-m.fresh {
				m.fresh--
			}
			m.jobs = append(m.jobs[:i], m.jobs[i+1:]...)
			return
		}
	}
	panic("pendModel: remove of absent job")
}

func newPendJob(id int) *JobResult {
	return &JobResult{Job: &Job{Name: "j"}, pid: id + 1}
}

// checkPendWalk asserts that first/next visit exactly the model's jobs in
// arrival order and that every visited handle reports itself queued.
func checkPendWalk(t *testing.T, q *pendQueue, m *pendModel, label string) {
	t.Helper()
	if q.Len() != m.Len() {
		t.Fatalf("%s: Len %d, want %d", label, q.Len(), m.Len())
	}
	i := 0
	for jr := q.first(); jr != nil; jr = q.next(jr) {
		if i >= m.Len() || jr != m.jobs[i] {
			t.Fatalf("%s: walk index %d = pid %d, model disagrees", label, i, jr.pid)
		}
		if !q.has(jr) {
			t.Fatalf("%s: walked job pid %d not has()", label, jr.pid)
		}
		i++
	}
	if i != m.Len() {
		t.Fatalf("%s: walk visited %d jobs, want %d", label, i, m.Len())
	}
}

// TestPendQueueDifferential drives pendQueue and the splice-slice model with
// the same random operation stream — pushes, removals by handle from random
// positions, arrival drains — dense enough that compaction fires between
// any two of them, and checks they agree on every observation: Len, the
// first/next walk, has() of live and removed handles, and the set Arrivals
// reports. Policies only ever see the queue through
// these operations, so agreement here is what "byte-identical traces" rests
// on; in particular a handle taken before a compaction must still remove the
// right job after it.
func TestPendQueueDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q pendQueue
		var m pendModel
		var gone []*JobResult
		next := 0
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(11); {
			case k < 5: // push
				jr := newPendJob(next)
				q.push(jr)
				m.push(jr)
				next++
			case k < 9: // remove by handle, anywhere in the queue
				if m.Len() == 0 {
					continue
				}
				jr := m.jobs[rng.Intn(m.Len())]
				q.remove(jr)
				m.remove(jr)
				gone = append(gone, jr)
			case k < 10: // arrivals drain: each still-queued new entry, once, in order
				want := m.jobs[m.Len()-m.fresh:]
				i := 0
				q.arrivals(func(jr *JobResult) {
					if i >= len(want) || jr != want[i] {
						t.Fatalf("seed %d op %d: arrival %d = pid %d, model disagrees", seed, op, i, jr.pid)
					}
					i++
				})
				if i != len(want) {
					t.Fatalf("seed %d op %d: %d arrivals reported, want %d", seed, op, i, len(want))
				}
				m.fresh = 0
			default:
				checkPendWalk(t, &q, &m, "walk")
			}
			if q.Len() != m.Len() {
				t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, q.Len(), m.Len())
			}
		}
		checkPendWalk(t, &q, &m, "final")
		for _, jr := range gone {
			if q.has(jr) {
				t.Fatalf("seed %d: removed job pid %d still has()", seed, jr.pid)
			}
		}
	}
}

func TestPendQueueScanOrderAfterRemovals(t *testing.T) {
	var q pendQueue
	for i := 0; i < 100; i++ {
		q.push(newPendJob(i))
	}
	// Remove every other job during an arrival-order walk — the easy-backfill
	// access pattern (step past the candidate, then remove it). Fifty
	// removals out of a hundred cross the compaction threshold mid-walk, so
	// the held "next" handle must survive being moved.
	for next := q.first(); next != nil; {
		jr := next
		next = q.next(jr)
		if jr.pid%2 == 0 {
			q.remove(jr)
		}
	}
	if q.Len() != 50 {
		t.Fatalf("Len = %d, want 50", q.Len())
	}
	want := 1
	for jr := q.first(); jr != nil; jr = q.next(jr) {
		if jr.pid != want {
			t.Fatalf("walk = pid %d, want %d", jr.pid, want)
		}
		want += 2
	}
	// Drain from the head; arrival order must hold.
	prev := 0
	for q.Len() > 0 {
		jr := q.first()
		q.remove(jr)
		if jr.pid <= prev {
			t.Fatalf("drain out of order: pid %d after %d", jr.pid, prev)
		}
		prev = jr.pid
	}
	if q.first() != nil {
		t.Fatal("first() on empty queue != nil")
	}
}

// The committed evidence for the pending-queue representation: draining a
// 50k-job queue through the scheduler's removal verb. Splice removal
// (BenchmarkPendingSpliceDrain50k) moves O(queue) pointers per removal —
// O(queue²) per drained round — while the tombstoned queue is O(1) amortized.

const benchQueueLen = 50_000

func benchPendJobs() []*JobResult {
	jobs := make([]*JobResult, benchQueueLen)
	for i := range jobs {
		jobs[i] = newPendJob(i)
	}
	return jobs
}

func BenchmarkPendingQueueDrain50k(b *testing.B) {
	jobs := benchPendJobs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var q pendQueue
		for _, jr := range jobs {
			q.push(jr)
		}
		for q.Len() > 0 {
			q.remove(q.first())
		}
	}
}

func BenchmarkPendingSpliceDrain50k(b *testing.B) {
	jobs := benchPendJobs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var m pendModel
		for _, jr := range jobs {
			m.push(jr)
		}
		for m.Len() > 0 {
			m.remove(m.jobs[0])
		}
	}
}
