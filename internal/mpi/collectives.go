package mpi

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Comm is a communicator: an ordered subset of world ranks with its own rank
// numbering and a private collective tag space. All collective calls on a
// Comm must be made by every member in the same order (SPMD), as in MPI.
type Comm struct {
	w       *World
	ns      int         // tag namespace (one per concurrently-running job)
	id      int         // communicator id within the namespace
	members []int       // comm rank -> world rank
	index   map[int]int // world rank -> comm rank
	seq     []int       // per-member collective sequence number
}

// Comm returns a communicator over all world ranks (MPI_COMM_WORLD), in the
// default tag namespace.
func (w *World) Comm() *Comm {
	all := make([]int, len(w.ranks))
	for i := range all {
		all[i] = i
	}
	return w.newComm(0, all)
}

// NewNamespace allocates a fresh tag namespace. Communicators created in
// different namespaces can never produce equal collective tags, so two jobs
// sharing one world — each creating its own communicators — cannot match
// each other's messages no matter how many collectives or communicators
// either one issues. The cluster scheduler allocates one per admitted job.
func (w *World) NewNamespace() int {
	w.nsSeq++
	if w.nsSeq >= maxNamespaces {
		panic(fmt.Sprintf("mpi: more than %d tag namespaces", maxNamespaces))
	}
	return w.nsSeq
}

func (w *World) newComm(ns int, members []int) *Comm {
	if ns < 0 || ns >= maxNamespaces {
		panic(fmt.Sprintf("mpi: tag namespace %d out of range", ns))
	}
	id := w.comms[ns]
	if id >= commsPerNamespace {
		panic(fmt.Sprintf("mpi: more than %d communicators in tag namespace %d",
			commsPerNamespace, ns))
	}
	w.comms[ns] = id + 1
	c := &Comm{w: w, ns: ns, id: id, members: members,
		index: make(map[int]int, len(members)), seq: make([]int, len(members))}
	for i, wr := range members {
		if wr < 0 || wr >= len(w.ranks) {
			panic(fmt.Sprintf("mpi: communicator member %d out of range", wr))
		}
		if _, dup := c.index[wr]; dup {
			panic(fmt.Sprintf("mpi: duplicate communicator member %d", wr))
		}
		c.index[wr] = i
	}
	return c
}

// SubNS creates a communicator of the given world ranks, sorted ascending, in
// tag namespace ns (0, the default, or one from NewNamespace).
func (w *World) SubNS(ns int, members []int) *Comm {
	m := append([]int(nil), members...)
	sort.Ints(m)
	return w.newComm(ns, m)
}

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank maps a comm rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.members[commRank] }

// RankOf returns r's comm rank, or -1 if r is not a member.
func (c *Comm) RankOf(r *Rank) int {
	if i, ok := c.index[r.rank]; ok {
		return i
	}
	return -1
}

// Collective tags are negative to stay out of the user tag space and are
// partitioned as
//
//	tag = -(1 + ns<<(commBits+seqBits) | id<<seqBits | seq)
//
// so a (namespace, communicator, collective-sequence) triple maps to a
// unique tag. Exhausting a field panics instead of wrapping: the previous
// single-counter scheme let a communicator whose collective sequence passed
// tagSpacePerComm bleed silently into the next communicator's tag block —
// on a persistent world serving an unbounded job stream, two communicators
// over the same ranks could then match each other's messages.
const (
	seqBits  = 30 // collective calls per communicator
	commBits = 12 // communicators per namespace
	nsBits   = 21 // namespaces per world (fits negated int64 with room to spare)

	tagSpacePerComm   = 1 << seqBits
	commsPerNamespace = 1 << commBits
	maxNamespaces     = 1 << nsBits
)

// tagAt encodes the collective tag for sequence number s on c.
func (c *Comm) tagAt(s int) int {
	if s < 0 || s >= tagSpacePerComm {
		panic(fmt.Sprintf("mpi: communicator (ns %d, id %d) exhausted its %d collective tags",
			c.ns, c.id, tagSpacePerComm))
	}
	return -(1 + (c.ns<<(commBits+seqBits) | c.id<<seqBits | s))
}

// nextTag allocates the collective tag for r's next collective on c. Tags
// are unique per (comm, collective call) because every member calls
// collectives in the same order.
func (c *Comm) nextTag(me int) int {
	s := c.seq[me]
	c.seq[me]++
	return c.tagAt(s)
}

// ReserveTags allocates n consecutive collective tags for a library-level
// operation (such as one collective I/O call with n internal iterations) and
// returns the first; subsequent tags are base-1, base-2, …, base-(n-1).
// Every member must call it at the same point in its collective sequence.
func (c *Comm) ReserveTags(r *Rank, n int) int {
	me := c.mustRank(r)
	s := c.seq[me]
	if n > 0 && s+n > tagSpacePerComm {
		panic(fmt.Sprintf("mpi: reserving %d tags would exhaust communicator (ns %d, id %d)",
			n, c.ns, c.id))
	}
	c.seq[me] += n
	return c.tagAt(s)
}

// send/recv in comm-rank space.
func (c *Comm) send(r *Rank, dstComm, tag int, payload interface{}, bytes int64) {
	r.Send(c.members[dstComm], tag, payload, bytes)
}
func (c *Comm) isend(r *Rank, dstComm, tag int, payload interface{}, bytes int64) *Request {
	return r.Isend(c.members[dstComm], tag, payload, bytes)
}
func (c *Comm) recv(r *Rank, srcComm, tag int) (interface{}, int64) {
	return r.Recv(c.members[srcComm], tag)
}

func (c *Comm) mustRank(r *Rank) int {
	me := c.RankOf(r)
	if me < 0 {
		panic(fmt.Sprintf("mpi: rank %d is not a member of this communicator", r.rank))
	}
	return me
}

// beginColl opens a collective span on r's track when span tracing is
// enabled; the attributes are built only past the nil check, so the disabled
// path allocates nothing. Nested point-to-point spans (mpi.send/mpi.recv)
// appear inside it by time containment.
func (c *Comm) beginColl(r *Rank, name string, bytes int64) obs.SpanID {
	ot := c.w.obs
	if ot == nil {
		return 0
	}
	return ot.BeginRank(r.rank, name, "mpi", r.Now(),
		obs.I("comm_size", int64(c.Size())), obs.I("bytes", bytes))
}

func (c *Comm) endColl(r *Rank, id obs.SpanID) {
	if ot := c.w.obs; ot != nil {
		ot.End(id, r.Now())
	}
}

// Barrier blocks until every member has entered it (dissemination barrier,
// ceil(log2 n) rounds).
func (c *Comm) Barrier(r *Rank) {
	me := c.mustRank(r)
	tag := c.nextTag(me)
	n := c.Size()
	if n == 1 {
		return
	}
	sp := c.beginColl(r, "mpi.barrier", 0)
	for k := 1; k < n; k <<= 1 {
		dst := (me + k) % n
		src := (me - k + n) % n
		req := c.isend(r, dst, tag, nil, 0)
		c.recv(r, src, tag)
		r.Wait(req)
	}
	c.endColl(r, sp)
}

// Bcast distributes payload (size bytes) from root to all members via a
// binomial tree; every member returns the payload.
func (c *Comm) Bcast(r *Rank, root int, payload interface{}, bytes int64) interface{} {
	me := c.mustRank(r)
	tag := c.nextTag(me)
	sp := c.beginColl(r, "mpi.bcast", bytes)
	defer c.endColl(r, sp)
	n := c.Size()
	rel := (me - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (rel - mask + root) % n
			payload, _ = c.recv(r, src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	var reqs []*Request
	for mask > 0 {
		if rel+mask < n {
			dst := (rel + mask + root) % n
			reqs = append(reqs, c.isend(r, dst, tag, payload, bytes))
		}
		mask >>= 1
	}
	r.WaitAll(reqs)
	return payload
}

// ReduceFn combines two partial values into one. It must be associative and
// commutative for the tree reduction to be well-defined (all the paper's
// operators — sum, min, max, count — are).
type ReduceFn func(a, b interface{}) interface{}

// Reduce combines every member's data at root via a binomial tree and
// returns the combined value at root (nil elsewhere). bytes is the logical
// message size of one partial value.
func (c *Comm) Reduce(r *Rank, root int, data interface{}, bytes int64, op ReduceFn) interface{} {
	me := c.mustRank(r)
	tag := c.nextTag(me)
	sp := c.beginColl(r, "mpi.reduce", bytes)
	defer c.endColl(r, sp)
	n := c.Size()
	rel := (me - root + n) % n
	acc := data
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			peer := rel | mask
			if peer < n {
				v, _ := c.recv(r, (peer+root)%n, tag)
				acc = op(acc, v)
			}
		} else {
			peer := rel &^ mask
			c.send(r, (peer+root)%n, tag, acc, bytes)
			return nil
		}
	}
	return acc
}

// Allreduce is Reduce to member 0 followed by Bcast; every member returns
// the combined value.
func (c *Comm) Allreduce(r *Rank, data interface{}, bytes int64, op ReduceFn) interface{} {
	v := c.Reduce(r, 0, data, bytes, op)
	return c.Bcast(r, 0, v, bytes)
}

// Gatherv collects each member's value at root, indexed by comm rank; it
// returns the slice at root and nil elsewhere. bytes holds the per-member
// message sizes (indexed by comm rank).
func Gatherv[T any](c *Comm, r *Rank, root int, v T, bytes []int64) []T {
	return gather(c, r, root, v, bytes[c.mustRank(r)])
}

// gather is Gatherv given only the caller's own message size: the root learns
// the others' from their messages, so a uniform-size gather needs no size
// list.
func gather[T any](c *Comm, r *Rank, root int, v T, bytes int64) []T {
	me := c.mustRank(r)
	tag := c.nextTag(me)
	sp := c.beginColl(r, "mpi.gatherv", bytes)
	defer c.endColl(r, sp)
	if me != root {
		c.send(r, root, tag, v, bytes)
		return nil
	}
	out := make([]T, c.Size())
	out[me] = v
	// Post all receives, then complete in post order. Each receive matches a
	// specific source, so the comm index of the k-th request is known at post
	// time (Wait recycles the request, so its fields must not be read after).
	reqs := make([]*Request, 0, c.Size()-1)
	from := make([]int, 0, c.Size()-1)
	for i := 0; i < c.Size(); i++ {
		if i != me {
			reqs = append(reqs, r.Irecv(c.members[i], tag))
			from = append(from, i)
		}
	}
	for k, q := range reqs {
		if x, _ := r.Wait(q); x != nil {
			out[from[k]] = x.(T)
		}
	}
	return out
}

// Allgather gathers every member's value (a message of bytes bytes each) to
// member 0, which broadcasts the slice it built; every member returns that
// one slice, indexed by comm rank. The modeled bcast volume is the sum of all
// payload sizes, matching ROMIO's offset-list exchange cost. The result is
// shared by every member of the call and must not be mutated.
func Allgather[T any](c *Comm, r *Rank, v T, bytes int64) []T {
	all := gather(c, r, 0, v, bytes)
	return c.Bcast(r, 0, all, bytes*int64(c.Size())).([]T)
}

// Allgatherv is Allgather with per-member sizes. Its result, too, is shared
// by every member and must not be mutated.
func Allgatherv[T any](c *Comm, r *Rank, v T, bytes []int64) []T {
	all := Gatherv(c, r, 0, v, bytes)
	var total int64
	for _, b := range bytes {
		total += b
	}
	return c.Bcast(r, 0, all, total).([]T)
}
