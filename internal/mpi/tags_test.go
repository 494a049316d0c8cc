package mpi

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// oldTag is the pre-namespace tag formula: a single world-global comm id
// counter and no overflow check. Kept here (only) to document the collision
// the namespaced scheme closes.
func oldTag(id, seq int) int { return -(1 + id*tagSpacePerComm + seq) }

// TestPreviouslyCollidingTagsIsolate pins the regression: under the old
// single-counter scheme, a communicator whose collective sequence reached
// tagSpacePerComm produced the same tag as the next communicator's first
// collective — two comms over the same ranks (e.g. consecutive jobs on a
// warm world) could match each other's messages. The namespaced scheme makes
// every cross-namespace tag pair distinct and turns in-namespace exhaustion
// into a panic instead of a silent bleed.
func TestPreviouslyCollidingTagsIsolate(t *testing.T) {
	// The old collision, demonstrated on the formula itself.
	if oldTag(0, tagSpacePerComm) != oldTag(1, 0) {
		t.Fatalf("premise: old scheme comm 0 seq %d vs comm 1 seq 0 should collide", tagSpacePerComm)
	}

	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.Params{RanksPerNode: 2})
	a := w.SubNS(0, []int{0, 1})                // job A's comm, default namespace
	b := w.SubNS(w.NewNamespace(), []int{0, 1}) // job B's comm, own namespace

	// Every sampled tag of b differs from every sampled tag of a, including
	// the extremes where the old scheme wrapped.
	seqs := []int{0, 1, tagSpacePerComm - 2, tagSpacePerComm - 1}
	for _, sa := range seqs {
		for _, sb := range seqs {
			if a.tagAt(sa) == b.tagAt(sb) {
				t.Fatalf("tag collision across namespaces: a.seq=%d b.seq=%d -> %d",
					sa, sb, a.tagAt(sa))
			}
		}
	}

	// Same namespace, different comm ids must be disjoint too.
	a2 := w.SubNS(0, []int{0, 1})
	for _, sa := range seqs {
		for _, sb := range seqs {
			if a.tagAt(sa) == a2.tagAt(sb) {
				t.Fatalf("tag collision across comm ids: %d", a.tagAt(sa))
			}
		}
	}

	// Exhaustion panics instead of producing a2's (old scheme: the next
	// comm's) first tag.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("tagAt(%d) must panic, not wrap into the next comm's block", tagSpacePerComm)
			}
		}()
		a.tagAt(tagSpacePerComm)
	}()
}

// TestReserveTagsExhaustionPanics checks the bulk-reservation path: a
// reservation crossing the sequence-space boundary panics rather than
// returning tags that alias another communicator's block.
func TestReserveTagsExhaustionPanics(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.Params{RanksPerNode: 2})
	c := w.SubNS(0, []int{0, 1})
	done := make(chan bool, 1)
	w.Go(func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		c.seq[0] = tagSpacePerComm - 1
		defer func() { done <- recover() != nil }()
		c.ReserveTags(r, 2) // would cover seq 2^30-1 and 2^30: must panic
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !<-done {
		t.Fatal("ReserveTags crossing the tag-space boundary must panic")
	}
}

// TestConcurrentJobsOnSubComms runs two jobs concurrently on disjoint rank
// subsets, each in its own namespace, with one job's collective sequence
// pre-advanced so that under the old formula its tag values would coincide
// with the other job's. Both jobs' collectives must still deliver their own
// payloads.
func TestConcurrentJobsOnSubComms(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 4, fabric.Params{RanksPerNode: 2})
	ca := w.SubNS(w.NewNamespace(), []int{0, 1})
	cb := w.SubNS(w.NewNamespace(), []int{2, 3})
	// Align raw tag values: without namespaces, ca's next tags (id 0) and
	// cb's (id 1) offset by tagSpacePerComm would alias once ca's sequence
	// advanced past the boundary; here we just offset the sequences so the
	// two jobs' tag streams interleave maximally within their blocks.
	for i := range ca.seq {
		ca.seq[i] = tagSpacePerComm - 4
	}

	got := make([]float64, 4)
	main := func(c *Comm, base float64) func(r *Rank) {
		return func(r *Rank) {
			// A few overlapping collectives per job.
			v := c.Bcast(r, 0, base, 8).(float64)
			s := c.Allreduce(r, v+float64(c.RankOf(r)), 8, func(a, b interface{}) interface{} {
				return a.(float64) + b.(float64)
			}).(float64)
			c.Barrier(r)
			got[r.Rank()] = s
		}
	}
	jobA, jobB := main(ca, 100), main(cb, 200)
	w.Go(func(r *Rank) {
		if r.Rank() < 2 {
			jobA(r)
		} else {
			jobB(r)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Job A: 2*100 + (0+1) = 201 on both members; job B: 2*200 + 1 = 401.
	want := []float64{201, 201, 401, 401}
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("rank %d: got %v, want %v (full: %v)", i, v, want[i], got)
		}
	}
}
