package engineering

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/types"
	"repro/internal/values"
)

// mediaBehavior accepts flows and signals.
type mediaBehavior struct {
	mu      sync.Mutex
	flows   int
	signals int
}

func newMedia(values.Value) (Behavior, error) { return &mediaBehavior{}, nil }

func (m *mediaBehavior) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	return "OK", nil, nil
}

func (m *mediaBehavior) Flow(string, values.Value) {
	m.mu.Lock()
	m.flows++
	m.mu.Unlock()
}

func (m *mediaBehavior) Signal(string, []values.Value) {
	m.mu.Lock()
	m.signals++
	m.mu.Unlock()
}

func TestFlowsAndSignalsThroughObjects(t *testing.T) {
	// Flows and signals route through the engineering object handler to
	// behaviours that accept them, including across deactivation with
	// auto-reactivation.
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	n.Behaviors().Register("media", newMedia)
	capsule, err := n.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := capsule.CreateCluster(ClusterOptions{AutoReactivate: true})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cluster.CreateObject("media", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	st := types.StreamInterface("Media", types.FlowOf("video", types.Consumer, values.TBytes()))
	ref, err := obj.AddInterface(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Bind(ref, channel.BindConfig{Locator: f.reloc, Type: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	ctx := context.Background()
	if err := b.Flow(ctx, "video", values.BytesVal([]byte{1})); err != nil {
		t.Fatal(err)
	}
	// Signals travel through an untyped binding (the stream type declares
	// no signals, and a typed binding enforces that).
	ub, err := n.Bind(ref, channel.BindConfig{Locator: f.reloc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ub.Close() })
	if err := ub.Signal(ctx, "tick", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		m := obj.Behavior().(*mediaBehavior)
		m.mu.Lock()
		got := m.flows == 1 && m.signals == 1
		m.mu.Unlock()
		if got {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m := obj.Behavior().(*mediaBehavior)
	m.mu.Lock()
	flows, signals := m.flows, m.signals
	m.mu.Unlock()
	if flows != 1 || signals != 1 {
		t.Fatalf("flows=%d signals=%d", flows, signals)
	}

	// Deactivate: the next flow reactivates the cluster on demand.
	if err := cluster.Deactivate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flow(ctx, "video", values.BytesVal([]byte{2})); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cluster.Active() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !cluster.Active() {
		t.Fatal("flow did not reactivate the cluster")
	}
}

func TestCapsuleAccessorsAndCheckpoint(t *testing.T) {
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	capsule, err := n.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	if capsule.Node() != n {
		t.Error("capsule.Node mismatch")
	}
	for i := 0; i < 2; i++ {
		k, err := capsule.CreateCluster(ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.CreateObject("counter", values.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cks, err := capsule.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 {
		t.Fatalf("capsule checkpoint = %d clusters", len(cks))
	}
	if !n.Behaviors().Known("counter") || n.Behaviors().Known("ghost") {
		t.Error("Known()")
	}
	if n.Server() == nil {
		t.Error("Server() nil")
	}
}

// TestInterfaceNoncesDeriveFromNodeID: a node seeds its interface nonces
// from its ID and nothing else, so the same deployment mints the same
// references in every process that runs it (what lets odpnode print a
// reference a client on another host can be handed in advance), and two
// nodes never share a nonce sequence.
func TestInterfaceNoncesDeriveFromNodeID(t *testing.T) {
	first := func(node string) uint64 {
		_, ref := deploy(t, newFixture().node(t, node, NodeConfig{}), ClusterOptions{}, 0)
		return ref.ID.Nonce
	}
	if a, b := first("alpha"), first("alpha"); a != b {
		t.Errorf("node alpha minted nonce %x in one system and %x in another", a, b)
	}
	if a, b := first("alpha"), first("beta"); a == b {
		t.Errorf("nodes alpha and beta minted the same first nonce %x", a)
	}
}
