package cluster

// minHeap is a binary min-heap under less: the ordered index the reordering
// policies keep over pending-job handles. moved, when set, is told an
// element's index whenever it changes (-1 when it leaves the heap), so the
// owner can fix an element in place after its key moves.
type minHeap[T any] struct {
	a     []T
	less  func(a, b T) bool
	moved func(x T, i int)
}

func (h *minHeap[T]) len() int { return len(h.a) }

// top returns the minimum; the heap must not be empty.
func (h *minHeap[T]) top() T { return h.a[0] }

func (h *minHeap[T]) push(x T) {
	h.a = append(h.a, x)
	h.fix(len(h.a) - 1)
}

// pop removes and returns the minimum.
func (h *minHeap[T]) pop() T {
	x, n := h.a[0], len(h.a)-1
	h.a[0] = h.a[n]
	clear(h.a[n:])
	h.a = h.a[:n]
	if n > 0 {
		h.fix(0)
	}
	if h.moved != nil {
		h.moved(x, -1)
	}
	return x
}

// fix restores heap order after the key of the element at index i changed
// (or the element was just placed there): sift it up, then down.
func (h *minHeap[T]) fix(i int) {
	x := h.a[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(x, h.a[parent]) {
			break
		}
		h.set(i, h.a[parent])
		i = parent
	}
	for n := len(h.a); ; {
		c := 2*i + 1
		if c+1 < n && h.less(h.a[c+1], h.a[c]) {
			c++
		}
		if c >= n || !h.less(h.a[c], x) {
			break
		}
		h.set(i, h.a[c])
		i = c
	}
	h.set(i, x)
}

func (h *minHeap[T]) set(i int, x T) {
	h.a[i] = x
	if h.moved != nil {
		h.moved(x, i)
	}
}
