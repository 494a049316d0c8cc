package cluster

// pendQueue is the scheduler's pending-job queue: arrival order, O(1) push,
// and O(1) amortized removal of any entry by handle. An entry is its
// *JobResult; while queued it remembers its own slot (JobResult.slot), so
// removal needs no search and no position→slot translation — the cost that
// made a deep backlog O(pending²) when policies addressed jobs by index.
//
// Removals tombstone the slot (nil) instead of shifting the tail; head skips
// leading tombstones and a deferred compaction reclaims the rest once more
// than half the slice is dead, re-stamping the survivors' slots, so a handle
// stays valid for as long as its job is queued. Arrival order is the slice
// order and is never disturbed.
type pendQueue struct {
	items []*JobResult // arrival order; nil = removed (tombstone)
	head  int          // items[:head] are all dead; items[head] is live
	dead  int          // tombstone count at slots >= head
	fresh int          // items[fresh:] have not been reported by arrivals yet
}

// push appends an arrival to the tail.
func (p *pendQueue) push(jr *JobResult) {
	p.items = append(p.items, jr)
	jr.slot = len(p.items)
}

// Len returns the number of live pending jobs.
func (p *pendQueue) Len() int { return len(p.items) - p.head - p.dead }

// has reports whether jr is queued.
func (p *pendQueue) has(jr *JobResult) bool {
	return jr.slot > 0 && jr.slot <= len(p.items) && p.items[jr.slot-1] == jr
}

// first returns the earliest-arrived pending job, or nil on an empty queue.
func (p *pendQueue) first() *JobResult {
	if p.head < len(p.items) {
		return p.items[p.head]
	}
	return nil
}

// next returns the pending job that arrived after jr, or nil at the tail.
// jr must be queued: step past an entry before removing it.
func (p *pendQueue) next(jr *JobResult) *JobResult {
	if !p.has(jr) {
		panic("cluster: pending-queue walk from a job that is not queued")
	}
	for _, n := range p.items[jr.slot:] {
		if n != nil {
			return n
		}
	}
	return nil
}

// remove takes jr out of the queue; the rest keep their arrival order.
func (p *pendQueue) remove(jr *JobResult) {
	if !p.has(jr) {
		panic("cluster: pending-queue removal of a job that is not queued")
	}
	p.items[jr.slot-1], jr.slot = nil, 0
	p.dead++
	p.settle()
}

// settle restores the invariants after removals: head on a live slot, and
// tombstones compacted away once they outnumber the live entries beyond a
// small floor (always when the queue empties, so slots are reused). Each
// compaction halves the slice, so it amortizes to O(1) per removal.
func (p *pendQueue) settle() {
	for p.head < len(p.items) && p.items[p.head] == nil {
		p.head++
		p.dead--
	}
	if w := p.head + p.dead; p.head < len(p.items) && (w <= 32 || w <= len(p.items)/2) {
		return
	}
	live, fresh := p.items[:0], 0
	for i, jr := range p.items {
		if jr == nil {
			continue
		}
		if i < p.fresh {
			fresh++
		}
		live = append(live, jr)
		jr.slot = len(live)
	}
	clear(p.items[len(live):])
	p.items, p.head, p.dead, p.fresh = live, 0, 0, fresh
}

// arrivals reports, in arrival order, every still-queued job pushed since
// the previous call: how an indexing policy learns of new entries without a
// hook on the submit path.
func (p *pendQueue) arrivals(fn func(*JobResult)) {
	for _, jr := range p.items[p.fresh:] {
		if jr != nil {
			fn(jr)
		}
	}
	p.fresh = len(p.items)
}
