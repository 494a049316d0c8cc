package cluster

import (
	"math/rand"
	"sort"
	"testing"
)

// TestMinHeapAgainstSort: under random pushes, pops and in-place key changes
// (fix at the index the moved hook reported), pop order is sorted order and
// every element knows its own index.
func TestMinHeapAgainstSort(t *testing.T) {
	type node struct{ key, pos int }
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := minHeap[*node]{
			less:  func(a, b *node) bool { return a.key < b.key },
			moved: func(n *node, i int) { n.pos = i },
		}
		var live []*node
		for op := 0; op < 500; op++ {
			switch k := rng.Intn(4); {
			case k < 2:
				n := &node{key: rng.Intn(100), pos: -2}
				h.push(n)
				live = append(live, n)
			case k < 3 && len(live) > 0: // re-key a random element either way
				n := live[rng.Intn(len(live))]
				n.key = rng.Intn(100)
				h.fix(n.pos)
			case len(live) > 0:
				sort.SliceStable(live, func(a, b int) bool { return live[a].key < live[b].key })
				if got := h.pop(); got.key != live[0].key || got.pos != -1 {
					t.Fatalf("seed %d op %d: pop key %d pos %d, want key %d pos -1", seed, op, got.key, got.pos, live[0].key)
				}
				for i, n := range live { // equal keys: drop whichever node the heap chose
					if n.pos == -1 {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			if h.len() != len(live) {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, op, h.len(), len(live))
			}
			for i, n := range h.a {
				if n.pos != i {
					t.Fatalf("seed %d op %d: element at %d believes it is at %d", seed, op, i, n.pos)
				}
			}
		}
	}
}
