package fabric

import (
	"testing"

	"repro/internal/sim"
)

func testNet(nranks int, p Params) (*sim.Env, *Network) {
	env := sim.NewEnv()
	return env, New(env, nranks, p)
}

func TestNodePlacement(t *testing.T) {
	_, n := testNet(48, Params{RanksPerNode: 24})
	cases := []struct{ rank, node int }{{0, 0}, {23, 0}, {24, 1}, {47, 1}}
	for _, c := range cases {
		if got := n.Node(c.rank); got != c.node {
			t.Errorf("Node(%d) = %d, want %d", c.rank, got, c.node)
		}
	}
	if n.Nodes() != 2 {
		t.Errorf("Nodes() = %d, want 2", n.Nodes())
	}
}

func TestNodesRoundUp(t *testing.T) {
	_, n := testNet(25, Params{RanksPerNode: 24})
	if n.Nodes() != 2 {
		t.Errorf("Nodes() = %d, want 2 for 25 ranks at 24/node", n.Nodes())
	}
}

func TestInterNodeTransferTime(t *testing.T) {
	p := Params{
		Latency: 1e-3, Bandwidth: 1e6, NICBandwidth: 2e6,
		RanksPerNode: 1, SendOverhead: 1e-4,
		MemLatency: 1e-9, MemBandwidth: 1e12,
	}
	_, n := testNet(2, p)
	const size = 1000
	senderFree, ready := n.Transfer(0, 1, size, 0)
	wantTx := 1e-4 + float64(size)/2e6
	if senderFree != wantTx {
		t.Errorf("senderFree = %g, want %g", senderFree, wantTx)
	}
	wantReady := wantTx + 1e-3 + float64(size)/1e6 + float64(size)/2e6
	if diff := ready - wantReady; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("ready = %g, want %g", ready, wantReady)
	}
	if n.InterMessages != 1 || n.BytesOnWire != size {
		t.Errorf("stats: %d msgs %d bytes, want 1 msg %d bytes", n.InterMessages, n.BytesOnWire, size)
	}
}

func TestIntraNodeTransferIsCheap(t *testing.T) {
	_, n2 := testNet(24, Params{})
	_, intraReady := n2.Transfer(0, 1, 1<<20, 0)
	_, n3 := testNet(48, Params{})
	_, interReady2 := n3.Transfer(0, 25, 1<<20, 0)
	if intraReady >= interReady2 {
		t.Errorf("intra-node (%g) should be faster than inter-node (%g)", intraReady, interReady2)
	}
	if n2.BytesIntra != 1<<20 || n2.BytesOnWire != 0 {
		t.Errorf("intra transfer miscounted: intra=%d wire=%d", n2.BytesIntra, n2.BytesOnWire)
	}
}

// Two simultaneous sends from the same node must serialize on the TX NIC.
func TestNICSerialization(t *testing.T) {
	p := Params{
		Latency: 0.001, Bandwidth: 1e9, NICBandwidth: 1e6,
		RanksPerNode: 2, SendOverhead: 0,
	}
	_, n := testNet(4, p)
	const size = 1e6 // 1 second of NIC time
	_, r1 := n.Transfer(0, 2, size, 0)
	_, r2 := n.Transfer(1, 3, size, 0)
	if r2 < r1+0.9 {
		t.Errorf("second transfer ready at %g, want ≥ %g (NIC serialization)", r2, r1+0.9)
	}
}

// Receivers on the same node must serialize on the RX NIC.
func TestRXSerialization(t *testing.T) {
	p := Params{
		Latency: 0.001, Bandwidth: 1e9, NICBandwidth: 1e6,
		RanksPerNode: 1, SendOverhead: 0,
	}
	// 3 nodes: two senders (0,1) target receiver node 2... but RanksPerNode=1
	// means each rank is its own node, so both transfers hit rx[2].
	_, n := testNet(3, p)
	const size = 1e6
	_, r1 := n.Transfer(0, 2, size, 0)
	_, r2 := n.Transfer(1, 2, size, 0)
	if r2 < r1+0.9 {
		t.Errorf("second arrival at %g, want ≥ %g (RX serialization)", r2, r1+0.9)
	}
}

func TestTransferNegativeSizeClamped(t *testing.T) {
	_, n := testNet(2, Params{RanksPerNode: 1})
	sf, ready := n.Transfer(0, 1, -5, 0)
	if ready < sf || ready < 0 {
		t.Errorf("negative size produced nonsense times: %g %g", sf, ready)
	}
	if n.BytesOnWire != 0 {
		t.Errorf("negative size counted %d bytes", n.BytesOnWire)
	}
}

func TestDefaults(t *testing.T) {
	p := Params{}.Defaults()
	if p.Latency <= 0 || p.Bandwidth <= 0 || p.NICBandwidth <= 0 ||
		p.MemBandwidth <= 0 || p.RanksPerNode <= 0 || p.SendOverhead <= 0 {
		t.Errorf("Defaults left zero fields: %+v", p)
	}
	// Explicit values survive.
	p2 := Params{Latency: 42}.Defaults()
	if p2.Latency != 42 {
		t.Errorf("Defaults clobbered explicit Latency: %g", p2.Latency)
	}
}
