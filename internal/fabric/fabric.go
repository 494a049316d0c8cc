// Package fabric models the interconnect of a cluster: per-message latency,
// link bandwidth, and per-node NIC serialization (injection/ejection
// contention shared by all ranks on a node). Intra-node transfers bypass the
// NIC and use a memory-copy cost instead.
//
// The model is deliberately topology-free: the paper's results depend on
// message volume and message count, which a latency/bandwidth/NIC model
// captures, not on the Gemini mesh's routing detail.
package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Params is the machine's cost model apart from storage (pfs.Params): the
// interconnect, and the CPU time a rank spends on each message it sends,
// each piece it packs, each plan run it indexes, each logical subset it
// constructs and each partial result it merges. mpi, adio and cc read it
// through the rank's world (mpi.World.Net().Params()), so every time a layer
// charges comes from here. Zero values are replaced by Hopper-like defaults
// via Defaults; Scale changes the unit time is counted in.
type Params struct {
	// Latency is the end-to-end per-message latency between nodes (seconds).
	Latency float64
	// Bandwidth is the point-to-point link bandwidth (bytes/second).
	Bandwidth float64
	// NICBandwidth is the per-node injection/ejection bandwidth shared by
	// all ranks on the node (bytes/second).
	NICBandwidth float64
	// MemLatency and MemBandwidth cost intra-node transfers.
	MemLatency   float64
	MemBandwidth float64
	// RanksPerNode places rank r on node r/RanksPerNode.
	RanksPerNode int
	// SendOverhead is the CPU time a sender spends injecting a message
	// (seconds), charged even for non-blocking sends.
	SendOverhead float64
	// PackRate is the memory bandwidth charged for packing and unpacking
	// the two-phase shuffle's pieces, and for the CC map's decode copy
	// (bytes/second of Sys time).
	PackRate float64
	// PieceCost is the per-piece CPU cost of packing or placing one
	// non-contiguous fragment (index arithmetic plus a cache-missing small
	// memcpy). Fine-grained interleaved patterns are dominated by this, not
	// by bytes: it is what makes the paper's Figure 1 shuffle expensive.
	PieceCost float64
	// PlanCost is the CPU time charged per offset-list run for building a
	// two-phase access plan (seconds).
	PlanCost float64
	// ConstructCost is the CPU time charged per logical subset the CC map
	// reconstructs: coordinate arithmetic plus metadata indexing (seconds).
	ConstructCost float64
	// MergeCost is the CPU time charged per partial-result merge (seconds).
	MergeCost float64
}

// Defaults fills unset fields with values resembling the paper's Cray XE6
// (Gemini interconnect, 24 ranks/node).
func (p Params) Defaults() Params {
	if p.Latency == 0 {
		p.Latency = 2e-6
	}
	if p.Bandwidth == 0 {
		p.Bandwidth = 3e9
	}
	if p.NICBandwidth == 0 {
		// Effective per-node MPI injection bandwidth under many concurrent
		// transfers — far below the Gemini link peak, as measured in
		// practice on XE6-class machines.
		p.NICBandwidth = 1.5e9
	}
	if p.MemLatency == 0 {
		p.MemLatency = 3e-7
	}
	if p.MemBandwidth == 0 {
		p.MemBandwidth = 12e9
	}
	if p.RanksPerNode == 0 {
		p.RanksPerNode = 24
	}
	if p.SendOverhead == 0 {
		p.SendOverhead = 5e-7
	}
	if p.PackRate == 0 {
		p.PackRate = 4e9
	}
	if p.PieceCost == 0 {
		p.PieceCost = 0.3e-6
	}
	if p.PlanCost == 0 {
		p.PlanCost = 50e-9
	}
	if p.ConstructCost == 0 {
		p.ConstructCost = 100e-9
	}
	if p.MergeCost == 0 {
		p.MergeCost = 150e-9
	}
	return p
}

// Scale returns p, defaulted, with time counted in units of k seconds:
// every latency and per-operation cost multiplied by k, every bandwidth and
// rate divided by k. RanksPerNode is shape, not time, and stays. For k a
// power of two both are exact, so every virtual time the model yields comes
// out exactly k times larger and every ratio of them bit-identical (DESIGN
// §5, §7).
func (p Params) Scale(k float64) Params {
	p = p.Defaults()
	p.Latency *= k
	p.Bandwidth /= k
	p.NICBandwidth /= k
	p.MemLatency *= k
	p.MemBandwidth /= k
	p.SendOverhead *= k
	p.PackRate /= k
	p.PieceCost *= k
	p.PlanCost *= k
	p.ConstructCost *= k
	p.MergeCost *= k
	return p
}

// linkWindow is one injected degradation episode on a node's links.
type linkWindow struct {
	onset, recovery float64
	bwFactor        float64 // NIC bandwidth divisor (>= 1)
	extraLatency    float64 // added per-message latency (seconds)
}

// Network computes transfer completion times between ranks and tracks
// aggregate traffic statistics.
type Network struct {
	env    *sim.Env
	params Params
	tx     []*sim.Resource // per-node injection NIC
	rx     []*sim.Resource // per-node ejection NIC

	faults    [][]linkWindow // per-node degradation schedule
	jitterRng uint64         // splitmix64 state; 0 = jitter disabled
	jitterMax float64

	// Stats.
	Messages      int64
	BytesOnWire   int64 // inter-node bytes
	BytesIntra    int64 // intra-node bytes
	InterMessages int64
	// DegradedMessages counts inter-node messages that crossed at least one
	// degraded link (fault injection; see DegradeLink).
	DegradedMessages int64
}

// New builds a network for nranks ranks in env. Params are defaulted.
func New(env *sim.Env, nranks int, p Params) *Network {
	p = p.Defaults()
	nodes := (nranks + p.RanksPerNode - 1) / p.RanksPerNode
	if nodes == 0 {
		nodes = 1
	}
	n := &Network{env: env, params: p}
	n.faults = make([][]linkWindow, nodes)
	n.tx = make([]*sim.Resource, nodes)
	n.rx = make([]*sim.Resource, nodes)
	for i := range n.tx {
		n.tx[i] = env.NewResource(fmt.Sprintf("nic-tx%d", i))
		n.rx[i] = env.NewResource(fmt.Sprintf("nic-rx%d", i))
	}
	return n
}

// Params returns the (defaulted) parameters in use.
func (n *Network) Params() Params { return n.params }

// Node returns the node hosting rank r.
func (n *Network) Node(r int) int { return r / n.params.RanksPerNode }

// Nodes returns the number of nodes in the network.
func (n *Network) Nodes() int { return len(n.tx) }

// AppendNICBusyTimes appends each node's cumulative injection (tx) and
// ejection (rx) NIC busy time in virtual seconds to tx and rx, for the
// per-NIC telemetry families, so a caller publishing them every round can
// reuse two slices.
func (n *Network) AppendNICBusyTimes(tx, rx []float64) ([]float64, []float64) {
	for i := range n.tx {
		tx = append(tx, n.tx[i].BusyTime)
		rx = append(rx, n.rx[i].BusyTime)
	}
	return tx, rx
}

// DegradeLink injects a degradation episode on every link of a node: between
// onset and recovery, messages entering or leaving the node see the node's
// NIC bandwidth divided by bwFactor and extraLatency added per message.
// Episodes are evaluated on the virtual clock, so injected faults are
// bit-reproducible. bwFactor below 1 is clamped to 1.
func (n *Network) DegradeLink(node int, bwFactor, extraLatency, onset, recovery float64) {
	if node < 0 || node >= len(n.faults) {
		panic(fmt.Sprintf("fabric: degrade of invalid node %d", node))
	}
	if bwFactor < 1 {
		bwFactor = 1
	}
	n.faults[node] = append(n.faults[node],
		linkWindow{onset: onset, recovery: recovery, bwFactor: bwFactor, extraLatency: extraLatency})
}

// SetJitter enables deterministic per-message latency jitter on inter-node
// messages: each message pays an extra uniform draw in [0, max) from a
// splitmix64 stream seeded by seed. The draw order follows the (already
// deterministic) simulation event order, so runs are reproducible. max <= 0
// disables jitter.
func (n *Network) SetJitter(seed int64, max float64) {
	if max <= 0 {
		n.jitterRng, n.jitterMax = 0, 0
		return
	}
	n.jitterRng = uint64(seed) | 1 // never zero, which means "disabled"
	n.jitterMax = max
}

// linkState returns the degradation of a node's links at time t.
func (n *Network) linkState(node int, t float64) (bwFactor, extraLatency float64) {
	bwFactor = 1
	for _, w := range n.faults[node] {
		if t >= w.onset && t < w.recovery {
			if w.bwFactor > bwFactor {
				bwFactor = w.bwFactor
			}
			extraLatency += w.extraLatency
		}
	}
	return bwFactor, extraLatency
}

// jitterDraw advances the jitter stream and returns the next latency draw.
func (n *Network) jitterDraw() float64 {
	if n.jitterRng == 0 {
		return 0
	}
	// splitmix64 step.
	n.jitterRng += 0x9e3779b97f4a7c15
	z := n.jitterRng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return n.jitterMax * float64(z>>11) / float64(1<<53)
}

// Transfer computes the delivery of size bytes from rank src to rank dst,
// starting no earlier than `at`. It returns:
//
//	senderFree — when the sender's CPU is free again (injection done),
//	ready      — when the payload is fully available at the receiver.
//
// Transfer reserves NIC resources, so concurrent transfers through the same
// node serialize; it does not block any process — callers model blocking by
// sleeping until senderFree and/or ready.
func (n *Network) Transfer(src, dst int, size int64, at float64) (senderFree, ready float64) {
	p := n.params
	n.Messages++
	if size < 0 {
		size = 0
	}
	if n.Node(src) == n.Node(dst) {
		n.BytesIntra += size
		done := at + p.SendOverhead + p.MemLatency + float64(size)/p.MemBandwidth
		return at + p.SendOverhead, done
	}
	n.BytesOnWire += size
	n.InterMessages++
	txStart := at + p.SendOverhead
	srcBW, srcLat := n.linkState(n.Node(src), txStart)
	dstBW, dstLat := n.linkState(n.Node(dst), txStart)
	jit := n.jitterDraw()
	if srcBW > 1 || dstBW > 1 || srcLat > 0 || dstLat > 0 {
		n.DegradedMessages++
	}
	_, txEnd := n.tx[n.Node(src)].Reserve(txStart, float64(size)/(p.NICBandwidth/srcBW))
	wire := txEnd + p.Latency + srcLat + dstLat + jit + float64(size)/p.Bandwidth
	_, rxEnd := n.rx[n.Node(dst)].Reserve(wire, float64(size)/(p.NICBandwidth/dstBW))
	return txEnd, rxEnd
}
