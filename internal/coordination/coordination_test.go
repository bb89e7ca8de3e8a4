package coordination

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/engineering"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/relocator"
	"repro/internal/types"
	"repro/internal/values"
)

// ---------------------------------------------------------------------------
// event bus

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus()
	var got []Event
	cancel := b.Subscribe("bank.rate", nil, func(ev Event) { got = append(got, ev) })
	defer cancel()
	if n := b.Publish("bank.rate", values.Float(4.5)); n != 1 {
		t.Errorf("deliveries = %d", n)
	}
	if n := b.Publish("other.topic", values.Int(1)); n != 0 {
		t.Errorf("unrelated topic deliveries = %d", n)
	}
	if len(got) != 1 || got[0].Topic != "bank.rate" || got[0].Seq != 1 {
		t.Errorf("events = %+v", got)
	}
}

func TestBusWildcardAndFilter(t *testing.T) {
	b := NewBus()
	var all, filtered int
	b.Subscribe("", nil, func(Event) { all++ })
	b.Subscribe("x", func(ev Event) bool {
		i, _ := ev.Payload.AsInt()
		return i > 5
	}, func(Event) { filtered++ })
	b.Publish("x", values.Int(3))
	b.Publish("x", values.Int(7))
	b.Publish("y", values.Int(9))
	if all != 3 {
		t.Errorf("wildcard deliveries = %d", all)
	}
	if filtered != 1 {
		t.Errorf("filtered deliveries = %d", filtered)
	}
	if st := totals(b); st.Published != 3 || st.Delivered != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBusCancel(t *testing.T) {
	b := NewBus()
	calls := 0
	cancel := b.Subscribe("t", nil, func(Event) { calls++ })
	if n := b.Publish("t", values.Null()); n != 1 {
		t.Errorf("Publish delivered %d, want 1", n)
	}
	cancel()
	if n := b.Publish("t", values.Null()); n != 0 {
		t.Errorf("after cancel, Publish delivered %d", n)
	}
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

func TestBusOrderingPerSubscriber(t *testing.T) {
	b := NewBus()
	var seqs []uint64
	b.Subscribe("t", nil, func(ev Event) { seqs = append(seqs, ev.Seq) })
	for i := 0; i < 10; i++ {
		b.Publish("t", values.Int(int64(i)))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence not monotonic: %v", seqs)
		}
	}
}

func TestBusConcurrentPublishers(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	n := 0
	b.Subscribe("t", nil, func(Event) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b.Publish("t", values.Null())
			}
		}()
	}
	wg.Wait()
	if n != 400 {
		t.Errorf("deliveries = %d", n)
	}
}

// ---------------------------------------------------------------------------
// replica groups

// fakeInvoker is a deterministic in-process replica.
type fakeInvoker struct {
	mu     sync.Mutex
	state  int64
	fail   bool
	closed bool
	calls  int
	warp   int64 // divergence injection: offsets results
}

func (f *fakeInvoker) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.fail {
		return "", nil, errors.New("replica down")
	}
	switch op {
	case "Inc":
		d, _ := args[0].AsInt()
		f.state += d
		return "OK", []values.Value{values.Int(f.state + f.warp)}, nil
	case "Get":
		return "OK", []values.Value{values.Int(f.state + f.warp)}, nil
	}
	return "", nil, fmt.Errorf("unknown op %s", op)
}

func (f *fakeInvoker) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func TestReplicaGroupUpdatesAllMembers(t *testing.T) {
	g := NewReplicaGroup()
	replicas := []*fakeInvoker{{}, {}, {}}
	for i, r := range replicas {
		if err := g.Add(fmt.Sprintf("r%d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Add("r0", &fakeInvoker{}); err == nil {
		t.Error("duplicate member should fail")
	}
	ctx := context.Background()
	term, res, err := g.Invoke(ctx, "Inc", []values.Value{values.Int(5)})
	if err != nil || term != "OK" {
		t.Fatalf("Invoke = %q, %v, %v", term, res, err)
	}
	for i, r := range replicas {
		if r.state != 5 {
			t.Errorf("replica %d state = %d", i, r.state)
		}
	}
	// Reads rotate across replicas.
	for i := 0; i < 3; i++ {
		if _, _, err := g.InvokeRead(ctx, "Get", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range replicas {
		if r.calls != 2 { // one update + one rotated read each
			t.Errorf("replica %d calls = %d, want 2", i, r.calls)
		}
	}
}

func TestReplicaGroupMasksFailures(t *testing.T) {
	g := NewReplicaGroup()
	healthy := &fakeInvoker{}
	sick := &fakeInvoker{fail: true}
	if err := g.Add("healthy", healthy); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("sick", sick); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	term, _, err := g.Invoke(ctx, "Inc", []values.Value{values.Int(1)})
	if err != nil || term != "OK" {
		t.Fatalf("update with sick replica = %q, %v", term, err)
	}
	if g.Size() != 1 {
		t.Errorf("group size after failover = %d", g.Size())
	}
	if !sick.closed {
		t.Error("failed replica should be closed")
	}
	if st := g.Stats(); st.Failovers != 1 || st.Updates != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Reads fail over too.
	g2 := NewReplicaGroup()
	if err := g2.Add("sick", &fakeInvoker{fail: true}); err != nil {
		t.Fatal(err)
	}
	if err := g2.Add("ok", &fakeInvoker{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g2.InvokeRead(ctx, "Get", nil); err != nil {
		t.Errorf("read failover = %v", err)
	}
	if g2.Size() != 1 {
		t.Errorf("size after read failover = %d", g2.Size())
	}
}

func TestReplicaGroupDetectsDivergence(t *testing.T) {
	g := NewReplicaGroup()
	if err := g.Add("a", &fakeInvoker{}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("b", &fakeInvoker{warp: 100}); err != nil {
		t.Fatal(err)
	}
	_, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v", err)
	}
	if st := g.Stats(); st.Divergences != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReplicaGroupEmpty(t *testing.T) {
	g := NewReplicaGroup()
	ctx := context.Background()
	if _, _, err := g.Invoke(ctx, "Inc", nil); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("empty invoke = %v", err)
	}
	if _, _, err := g.InvokeRead(ctx, "Get", nil); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("empty read = %v", err)
	}
	if err := g.Remove("ghost"); !errors.Is(err, ErrNoSuchGroup) {
		t.Errorf("remove ghost = %v", err)
	}
	// All members failing leaves the group empty mid-call.
	if err := g.Add("a", &fakeInvoker{fail: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Invoke(ctx, "Inc", []values.Value{values.Int(1)}); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("all-dead invoke = %v", err)
	}
}

func TestReplicaGroupRemoveAndClose(t *testing.T) {
	g := NewReplicaGroup()
	a, b := &fakeInvoker{}, &fakeInvoker{}
	if err := g.Add("a", a); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("b", b); err != nil {
		t.Fatal(err)
	}
	if err := g.Remove("a"); err != nil || !a.closed {
		t.Errorf("remove: %v, closed=%v", err, a.closed)
	}
	if err := g.Close(); err != nil || !b.closed {
		t.Errorf("close: %v, closed=%v", err, b.closed)
	}
	if g.Size() != 0 {
		t.Errorf("size = %d", g.Size())
	}
}

// ---------------------------------------------------------------------------
// checkpoint & recovery (against real engineering clusters)

type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if op == "Inc" {
		d, _ := args[0].AsInt()
		c.n += d
	}
	return "OK", []values.Value{values.Int(c.n)}, nil
}

func (c *counter) CheckpointState() (values.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return values.Int(c.n), nil
}

func (c *counter) RestoreState(v values.Value) error {
	n, ok := v.AsInt()
	if !ok {
		return errors.New("bad state")
	}
	c.mu.Lock()
	c.n = n
	c.mu.Unlock()
	return nil
}

func counterIface() *types.Interface {
	return types.OpInterface("Counter",
		types.Op("Inc", types.Params(types.P("d", values.TInt())), types.Term("OK", types.P("n", values.TInt()))),
		types.Op("Get", nil, types.Term("OK", types.P("n", values.TInt()))),
	)
}

func newNode(t *testing.T, net *netsim.Network, reloc *relocator.Relocator, name string) *engineering.Node {
	t.Helper()
	n, err := engineering.NewNode(engineering.NodeConfig{
		ID:        naming.NodeID(name),
		Endpoint:  naming.Endpoint("sim://" + name),
		Transport: net.From(name),
		Locations: reloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Behaviors().Register("counter", func(values.Value) (engineering.Behavior, error) { return &counter{}, nil })
	t.Cleanup(func() { n.Close() })
	return n
}

func TestCheckpointStoreAndRecovery(t *testing.T) {
	net := netsim.New(1)
	reloc := relocator.New()
	nodeA := newNode(t, net, reloc, "alpha")
	nodeB := newNode(t, net, reloc, "beta")

	capA, _ := nodeA.CreateCapsule()
	k, err := capA.CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := k.CreateObject("counter", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := obj.AddInterface(counterIface())
	if err != nil {
		t.Fatal(err)
	}
	bnd, err := nodeA.Bind(ref, channel.BindConfig{Locator: reloc, Policy: policy.RetryPolicy{MaxAttempts: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer bnd.Close()
	ctx := context.Background()
	if _, _, err := bnd.Invoke(ctx, "Inc", []values.Value{values.Int(42)}); err != nil {
		t.Fatal(err)
	}

	cs := NewCheckpointStore()
	if err := CheckpointNow(k, cs); err != nil {
		t.Fatal(err)
	}
	if cs.Saves() != 1 || len(cs.Keys()) != 1 {
		t.Errorf("store = %d saves, keys %v", cs.Saves(), cs.Keys())
	}
	key := cs.Keys()[0]

	// A later, post-checkpoint update will be lost by recovery — that is
	// the recovery point contract.
	if _, _, err := bnd.Invoke(ctx, "Inc", []values.Value{values.Int(1)}); err != nil {
		t.Fatal(err)
	}

	// The node dies; recover the cluster on beta from the checkpoint.
	if err := nodeA.Close(); err != nil {
		t.Fatal(err)
	}
	capB, _ := nodeB.CreateCapsule()
	if _, err := RecoverCluster(capB, cs, key, engineering.ClusterOptions{}); err != nil {
		t.Fatalf("RecoverCluster: %v", err)
	}
	term, res, err := bnd.Invoke(ctx, "Get", nil)
	if err != nil || term != "OK" {
		t.Fatalf("Get after recovery = %q, %v", term, err)
	}
	if n, _ := res[0].AsInt(); n != 42 {
		t.Errorf("recovered state = %d, want 42 (checkpoint value)", n)
	}

	if _, err := cs.Load("ghost"); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("missing load = %v", err)
	}
	if _, err := RecoverCluster(capB, cs, "ghost", engineering.ClusterOptions{}); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("missing recover = %v", err)
	}
}

func TestReplicaGroupOverRealChannels(t *testing.T) {
	// Three replica objects on three nodes behind one group proxy: the
	// client sees a single interface; killing one node is masked.
	net := netsim.New(3)
	reloc := relocator.New()
	g := NewReplicaGroup()
	var nodes []*engineering.Node
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("node%d", i)
		n := newNode(t, net, reloc, name)
		nodes = append(nodes, n)
		cap1, _ := n.CreateCapsule()
		k, err := cap1.CreateCluster(engineering.ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := k.CreateObject("counter", values.Null())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := obj.AddInterface(counterIface())
		if err != nil {
			t.Fatal(err)
		}
		bnd, err := n.Bind(ref, channel.BindConfig{Locator: reloc, Policy: policy.RetryPolicy{AttemptTimeout: 200 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(name, bnd); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Close()
	ctx := context.Background()
	term, res, err := g.Invoke(ctx, "Inc", []values.Value{values.Int(7)})
	if err != nil || term != "OK" {
		t.Fatalf("group Invoke = %q, %v, %v", term, res, err)
	}
	// Kill one node: the next update masks the failure.
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	term, res, err = g.Invoke(ctx, "Inc", []values.Value{values.Int(3)})
	if err != nil || term != "OK" {
		t.Fatalf("group Invoke after node death = %q, %v, %v", term, res, err)
	}
	if n, _ := res[0].AsInt(); n != 10 {
		t.Errorf("replicated state = %d, want 10", n)
	}
	if g.Size() != 2 {
		t.Errorf("group size = %d, want 2", g.Size())
	}
	// Reads still served.
	term, res, err = g.InvokeRead(ctx, "Get", nil)
	if err != nil || term != "OK" {
		t.Fatalf("group read = %q, %v", term, err)
	}
	if n, _ := res[0].AsInt(); n != 10 {
		t.Errorf("read state = %d", n)
	}
}

// TestReplicaGroupInstrument: an instrumented group traces each update as
// one span with a child per replica leg — a failed leg failing its child —
// and records the update's latency; detaching stops both.
func TestReplicaGroupInstrument(t *testing.T) {
	g := NewReplicaGroup()
	replicas := []*fakeInvoker{{}, {}, {fail: true}}
	for i, r := range replicas {
		if err := g.Add(fmt.Sprintf("r%d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	m := mgmt.New()
	ins := m.Group("bank")
	g.Instrument(ins)
	if _, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)}); err != nil {
		t.Fatal(err)
	}
	ids := m.Tracer.TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("traces = %v, want one", ids)
	}
	spans := map[string]mgmt.Span{}
	for _, sp := range m.Tracer.Trace(ids[0]) {
		spans[sp.Name] = sp
	}
	root, ok := spans["replica.update:Inc"]
	if !ok || root.Parent != 0 {
		t.Fatalf("update span = %+v (found %v)", root, ok)
	}
	for i := range replicas {
		leg, ok := spans[fmt.Sprintf("replica:r%d", i)]
		if !ok || leg.Parent != root.ID || (leg.Err != "") != (i == 2) {
			t.Fatalf("leg r%d = %+v (found %v)", i, leg, ok)
		}
	}
	if n := ins.UpdateLatency.Snapshot().Count; n != 1 {
		t.Fatalf("update latency count = %d, want 1", n)
	}
	g.Instrument(nil)
	started := m.Tracer.Stats().Started
	if _, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if m.Tracer.Stats().Started != started || ins.UpdateLatency.Snapshot().Count != 1 {
		t.Fatal("a detached group still records")
	}
}
