package engineering

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/relocator"
	"repro/internal/types"
	"repro/internal/values"
)

// counterBehavior is a checkpointable behaviour: Inc bumps a counter, Get
// reads it. Its whole state is the counter.
type counterBehavior struct {
	mu sync.Mutex
	n  int64
}

func newCounter(arg values.Value) (Behavior, error) {
	c := &counterBehavior{}
	if i, ok := arg.AsInt(); ok {
		c.n = i
	}
	return c, nil
}

func (c *counterBehavior) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "Inc":
		d, _ := args[0].AsInt()
		c.n += d
		return "OK", []values.Value{values.Int(c.n)}, nil
	case "Get":
		return "OK", []values.Value{values.Int(c.n)}, nil
	}
	return "", nil, fmt.Errorf("unknown op %q", op)
}

func (c *counterBehavior) CheckpointState() (values.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return values.Int(c.n), nil
}

func (c *counterBehavior) RestoreState(state values.Value) error {
	n, ok := state.AsInt()
	if !ok {
		return errors.New("counter state must be an int")
	}
	c.mu.Lock()
	c.n = n
	c.mu.Unlock()
	return nil
}

// volatileBehavior has no checkpoint support.
type volatileBehavior struct{}

func newVolatile(values.Value) (Behavior, error) { return volatileBehavior{}, nil }

func (volatileBehavior) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	return "OK", nil, nil
}

func counterType() *types.Interface {
	return types.OpInterface("Counter",
		types.Op("Inc",
			types.Params(types.P("d", values.TInt())),
			types.Term("OK", types.P("n", values.TInt())),
		),
		types.Op("Get", nil, types.Term("OK", types.P("n", values.TInt()))),
	)
}

type fixture struct {
	net   *netsim.Network
	reloc *relocator.Relocator
}

func newFixture() *fixture {
	return &fixture{net: netsim.New(1), reloc: relocator.New()}
}

func (f *fixture) node(t *testing.T, name string, cfg NodeConfig) *Node {
	t.Helper()
	cfg.ID = naming.NodeID(name)
	cfg.Endpoint = naming.Endpoint("sim://" + name)
	cfg.Transport = f.net.From(name)
	cfg.Locations = f.reloc
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode(%s): %v", name, err)
	}
	n.Behaviors().Register("counter", newCounter)
	n.Behaviors().Register("volatile", newVolatile)
	t.Cleanup(func() { n.Close() })
	return n
}

// deploy creates capsule/cluster/object with a Counter interface.
func deploy(t *testing.T, n *Node, opts ClusterOptions, start int64) (*Cluster, naming.InterfaceRef) {
	t.Helper()
	cap1, err := n.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	k, err := cap1.CreateCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	o, err := k.CreateObject("counter", values.Int(start))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := o.AddInterface(counterType())
	if err != nil {
		t.Fatal(err)
	}
	return k, ref
}

func (f *fixture) bind(t *testing.T, n *Node, ref naming.InterfaceRef) *channel.Binding {
	t.Helper()
	b, err := n.Bind(ref, channel.BindConfig{Locator: f.reloc, Policy: policy.RetryPolicy{MaxAttempts: 4}, Type: counterType()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestNodeValidation(t *testing.T) {
	f := newFixture()
	if _, err := NewNode(NodeConfig{Endpoint: "sim://x", Transport: f.net}); err == nil {
		t.Error("missing ID should fail")
	}
	if _, err := NewNode(NodeConfig{ID: "x", Transport: f.net}); err == nil {
		t.Error("missing endpoint should fail")
	}
	if _, err := NewNode(NodeConfig{ID: "x", Endpoint: "sim://x"}); err == nil {
		t.Error("missing transport should fail")
	}
	n := f.node(t, "alpha", NodeConfig{})
	if n.ID() != "alpha" || n.Endpoint() != "sim://alpha" {
		t.Errorf("node identity: %s %s", n.ID(), n.Endpoint())
	}
	// The endpoint is taken: a second node there must fail.
	if _, err := NewNode(NodeConfig{ID: "alpha2", Endpoint: "sim://alpha", Transport: f.net}); err == nil {
		t.Error("duplicate endpoint should fail")
	}
}

func TestFigure5Structure(t *testing.T) {
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})

	// nucleus supports many capsules
	c1, err := n.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	if c1.ID() == c2.ID() {
		t.Error("capsule ids must differ")
	}
	if got := len(n.Capsules()); got != 2 {
		t.Errorf("capsules = %d", got)
	}
	// capsule contains many clusters
	k1, err := c1.CreateCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := c1.CreateCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if k1.ID() == k2.ID() {
		t.Error("cluster ids must differ")
	}
	if got := len(c1.Clusters()); got != 2 {
		t.Errorf("clusters = %d", got)
	}
	// cluster contains many objects
	o1, err := k1.CreateObject("counter", values.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := k1.CreateObject("counter", values.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if o1.ID() == o2.ID() {
		t.Error("object ids must differ")
	}
	if got := len(k1.Objects()); got != 2 {
		t.Errorf("objects = %d", got)
	}
	// objects offer many interfaces
	r1, err := o1.AddInterface(counterType())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := o1.AddInterface(counterType())
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID == r2.ID {
		t.Error("interface ids must differ")
	}
	if got := len(o1.Interfaces()); got != 2 {
		t.Errorf("interfaces = %d", got)
	}
	// containment paths embed the hierarchy
	if r1.ID.Object.Cluster.Capsule.Node != "alpha" {
		t.Errorf("interface id path = %s", r1.ID)
	}
	// lookups
	if _, err := n.Capsule(c1.ID().Seq); err != nil {
		t.Errorf("Capsule lookup: %v", err)
	}
	if _, err := n.Capsule(99); !errors.Is(err, ErrNoSuchCapsule) {
		t.Errorf("missing capsule = %v", err)
	}
	if _, err := c1.Cluster(k1.ID().Seq); err != nil {
		t.Errorf("Cluster lookup: %v", err)
	}
	if _, err := c1.Cluster(99); !errors.Is(err, ErrNoSuchCluster) {
		t.Errorf("missing cluster = %v", err)
	}
	if _, err := k1.Object(o1.ID().Seq); err != nil {
		t.Errorf("Object lookup: %v", err)
	}
	if _, err := k1.Object(99); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("missing object = %v", err)
	}
}

func TestStructuringConstraints(t *testing.T) {
	// "An implementation of an ODP system can choose to constrain the
	// structuring: only one object per cluster, only one cluster per
	// capsule."
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{MaxClustersPerCapsule: 1, MaxObjectsPerCluster: 1})
	c, err := n.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	k, err := c.CreateCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateCluster(ClusterOptions{}); !errors.Is(err, ErrStructuringLimit) {
		t.Errorf("second cluster = %v", err)
	}
	if _, err := k.CreateObject("counter", values.Int(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateObject("counter", values.Int(0)); !errors.Is(err, ErrStructuringLimit) {
		t.Errorf("second object = %v", err)
	}
}

func TestInvokeThroughNode(t *testing.T) {
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	_, ref := deploy(t, n, ClusterOptions{}, 10)
	b := f.bind(t, n, ref)
	term, res, err := b.Invoke(context.Background(), "Inc", []values.Value{values.Int(5)})
	if err != nil || term != "OK" {
		t.Fatalf("Inc = %q, %v, %v", term, res, err)
	}
	if v, _ := res[0].AsInt(); v != 15 {
		t.Errorf("counter = %d, want 15", v)
	}
}

func TestUnknownBehavior(t *testing.T) {
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	c, _ := n.CreateCapsule()
	k, _ := c.CreateCluster(ClusterOptions{})
	if _, err := k.CreateObject("ghost", values.Null()); !errors.Is(err, ErrNoSuchBehavior) {
		t.Errorf("err = %v", err)
	}
}

func TestDeactivateReactivate(t *testing.T) {
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	k, ref := deploy(t, n, ClusterOptions{}, 0)
	b := f.bind(t, n, ref)
	ctx := context.Background()
	if _, _, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(7)}); err != nil {
		t.Fatal(err)
	}

	if err := k.Deactivate(); err != nil {
		t.Fatal(err)
	}
	if k.Active() {
		t.Error("cluster should be inactive")
	}
	if err := k.Deactivate(); !errors.Is(err, ErrDeactivated) {
		t.Errorf("double deactivate = %v", err)
	}
	// Without AutoReactivate, calls fail with ERR_UNAVAILABLE.
	if _, _, err := b.Invoke(ctx, "Get", nil); !channel.IsRemote(err, channel.CodeUnavailable) {
		t.Errorf("call while deactivated = %v", err)
	}

	if err := k.Reactivate(); err != nil {
		t.Fatal(err)
	}
	if err := k.Reactivate(); !errors.Is(err, ErrActive) {
		t.Errorf("double reactivate = %v", err)
	}
	_, res, err := b.Invoke(ctx, "Get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res[0].AsInt(); v != 7 {
		t.Errorf("state after reactivation = %d, want 7", v)
	}
}

// TestFigure5Cycles repeats the two Figure 5 paths a node walks most: a
// new capsule, cluster, object and interface column, each reachable at
// once; and a cluster's checkpoint, deactivation and reactivation, after
// which every object keeps its state and its bindings.
func TestFigure5Cycles(t *testing.T) {
	const cycles = 3
	ctx := context.Background()
	inc := func(t *testing.T, b *channel.Binding) int64 {
		t.Helper()
		_, res, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(1)})
		if err != nil {
			t.Fatal(err)
		}
		n, _ := res[0].AsInt()
		return n
	}
	t.Run("create-capsule+cluster+object+interface", func(t *testing.T) {
		f := newFixture()
		n := f.node(t, "alpha", NodeConfig{})
		seen := map[naming.InterfaceID]bool{}
		for i := 0; i < cycles; i++ {
			_, ref := deploy(t, n, ClusterOptions{}, int64(10*i))
			if seen[ref.ID] {
				t.Fatalf("column %d reuses interface %s", i, ref.ID)
			}
			seen[ref.ID] = true
			if got := inc(t, f.bind(t, n, ref)); got != int64(10*i+1) {
				t.Errorf("column %d counted %d, want %d", i, got, 10*i+1)
			}
		}
		if got := len(n.Capsules()); got != cycles {
			t.Errorf("capsules = %d, want %d", got, cycles)
		}
	})
	for _, objects := range []int{1, 16} {
		t.Run(fmt.Sprintf("checkpoint+deactivate+reactivate/objects=%d", objects), func(t *testing.T) {
			f := newFixture()
			n := f.node(t, "alpha", NodeConfig{})
			capsule, err := n.CreateCapsule()
			if err != nil {
				t.Fatal(err)
			}
			k, err := capsule.CreateCluster(ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			bindings := make([]*channel.Binding, objects)
			for i := range bindings {
				o, err := k.CreateObject("counter", values.Int(int64(100*i)))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := o.AddInterface(counterType())
				if err != nil {
					t.Fatal(err)
				}
				bindings[i] = f.bind(t, n, ref)
			}
			for c := 1; c <= cycles; c++ {
				cp, err := k.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if len(cp.Objects) != objects {
					t.Errorf("cycle %d: checkpoint holds %d objects, want %d", c, len(cp.Objects), objects)
				}
				if err := k.Deactivate(); err != nil {
					t.Fatal(err)
				}
				if err := k.Reactivate(); err != nil {
					t.Fatal(err)
				}
				for i, b := range bindings {
					if got, want := inc(t, b), int64(100*i+c); got != want {
						t.Errorf("cycle %d: object %d counted %d, want %d", c, i, got, want)
					}
				}
			}
		})
	}
}

func TestPersistenceTransparencyAutoReactivate(t *testing.T) {
	// Section 9: persistence transparency masks deactivation and
	// reactivation — the client just calls, the cluster wakes up.
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	k, ref := deploy(t, n, ClusterOptions{AutoReactivate: true}, 0)
	b := f.bind(t, n, ref)
	ctx := context.Background()
	if _, _, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(3)}); err != nil {
		t.Fatal(err)
	}
	if err := k.Deactivate(); err != nil {
		t.Fatal(err)
	}
	_, res, err := b.Invoke(ctx, "Get", nil)
	if err != nil {
		t.Fatalf("call should have reactivated the cluster: %v", err)
	}
	if v, _ := res[0].AsInt(); v != 3 {
		t.Errorf("state = %d, want 3", v)
	}
	if !k.Active() {
		t.Error("cluster should be active again")
	}
}

func TestMigrationPreservesStateAndBindings(t *testing.T) {
	// The headline engineering scenario: a cluster migrates between nodes
	// while a client holds a live binding. Interface identity is preserved,
	// the relocator learns the new location, the binder re-resolves.
	f := newFixture()
	src := f.node(t, "alpha", NodeConfig{})
	dst := f.node(t, "beta", NodeConfig{})
	k, ref := deploy(t, src, ClusterOptions{}, 0)
	b := f.bind(t, src, ref)
	ctx := context.Background()
	if _, _, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(41)}); err != nil {
		t.Fatal(err)
	}

	dstCapsule, err := dst.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	nk, err := k.MigrateTo(dstCapsule)
	if err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	if nk.ID().Capsule.Node != "beta" {
		t.Errorf("migrated cluster lives at %s", nk.ID())
	}
	// The old cluster is gone from the source capsule.
	srcCapsules := src.Capsules()
	if len(srcCapsules) != 1 || len(srcCapsules[0].Clusters()) != 0 {
		t.Error("source capsule should be empty after migration")
	}
	// The relocator points at beta now.
	moved, err := f.reloc.Lookup(ref.ID)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Endpoint != "sim://beta" || moved.Epoch != 1 {
		t.Errorf("relocated ref = %+v", moved)
	}
	// The live binding keeps working and the state moved too.
	term, res, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(1)})
	if err != nil || term != "OK" {
		t.Fatalf("post-migration Inc = %q, %v, %v", term, res, err)
	}
	if v, _ := res[0].AsInt(); v != 42 {
		t.Errorf("counter after migration = %d, want 42", v)
	}
	if st := b.Stats(); st.Relocations == 0 {
		t.Errorf("binding stats should show a relocation: %+v", st)
	}
}

// TestMigrationRequiresBehaviorAtDestination: a destination that cannot
// instantiate the cluster fails the migration, and the failure changes
// nothing — the cluster stays active, the relocator still names the source
// and a live binding reads the state it had.
func TestMigrationRequiresBehaviorAtDestination(t *testing.T) {
	f := newFixture()
	src := f.node(t, "alpha", NodeConfig{})
	// A destination whose registry knows no behaviours.
	dst, err := NewNode(NodeConfig{
		ID: "gamma", Endpoint: "sim://gamma", Transport: f.net.From("gamma"), Locations: f.reloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	k, ref := deploy(t, src, ClusterOptions{}, 0)
	b := f.bind(t, src, ref)
	ctx := context.Background()
	if _, _, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(5)}); err != nil {
		t.Fatal(err)
	}
	cap2, err := dst.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.MigrateTo(cap2); !errors.Is(err, ErrNoSuchBehavior) {
		t.Errorf("migration without behaviour = %v", err)
	}
	if !k.Active() {
		t.Error("a failed install deactivated the source cluster")
	}
	if at, err := f.reloc.Lookup(ref.ID); err != nil || at.Endpoint != "sim://alpha" {
		t.Errorf("relocator after the failed install = %+v, %v; want the source", at, err)
	}
	_, res, err := b.Invoke(ctx, "Get", nil)
	if err != nil {
		t.Fatalf("Get after the failed install: %v", err)
	}
	if v, _ := res[0].AsInt(); v != 5 {
		t.Errorf("counter after the failed install = %d, want 5", v)
	}
}

// TestDeactivatedClusterKeepsItsCheckpoint: the checkpoint of a
// deactivated cluster is the one its deactivation took, so migrating it
// carries its state; a cluster that migrated away has no checkpoint.
func TestDeactivatedClusterKeepsItsCheckpoint(t *testing.T) {
	f := newFixture()
	src := f.node(t, "alpha", NodeConfig{})
	dst := f.node(t, "beta", NodeConfig{})
	k, ref := deploy(t, src, ClusterOptions{}, 7)
	b := f.bind(t, src, ref)
	ctx := context.Background()
	if _, _, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(3)}); err != nil {
		t.Fatal(err)
	}
	if err := k.Deactivate(); err != nil {
		t.Fatal(err)
	}
	ck, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ck.Objects[0].State.AsInt(); !ck.Objects[0].HasState || got != 10 {
		t.Errorf("checkpoint of the deactivated cluster holds %v (has state %v), want 10", ck.Objects[0].State, ck.Objects[0].HasState)
	}
	capB, err := dst.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.MigrateTo(capB); err != nil {
		t.Fatal(err)
	}
	_, res, err := b.Invoke(ctx, "Get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res[0].AsInt(); v != 10 {
		t.Errorf("counter after migrating the deactivated cluster = %d, want 10", v)
	}
	if _, err := k.Checkpoint(); !errors.Is(err, ErrNoSuchCluster) {
		t.Errorf("checkpoint of a cluster that migrated away = %v, want ErrNoSuchCluster", err)
	}
}

func TestInstantiateCheckpointOnAnotherNode(t *testing.T) {
	// Checkpoint on alpha, lose alpha, instantiate on beta.
	f := newFixture()
	src := f.node(t, "alpha", NodeConfig{})
	dst := f.node(t, "beta", NodeConfig{})
	k, ref := deploy(t, src, ClusterOptions{}, 123)
	ck, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Tear down the source (simulating a node failure after checkpoint).
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	capB, err := dst.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capB.Instantiate(ck, ClusterOptions{}); err != nil {
		t.Fatal(err)
	}
	// The same interface identity now answers at beta.
	b, err := dst.Bind(ref, channel.BindConfig{Locator: f.reloc, Policy: policy.RetryPolicy{MaxAttempts: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, res, err := b.Invoke(context.Background(), "Get", nil)
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if v, _ := res[0].AsInt(); v != 123 {
		t.Errorf("recovered state = %d, want 123", v)
	}
}

func TestVolatileObjectsCheckpointWithoutState(t *testing.T) {
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	c, _ := n.CreateCapsule()
	k, _ := c.CreateCluster(ClusterOptions{})
	if _, err := k.CreateObject("volatile", values.Null()); err != nil {
		t.Fatal(err)
	}
	ck, err := k.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Objects[0].HasState {
		t.Error("volatile object should have no state")
	}
	// Deactivate/reactivate re-creates it from the factory.
	if err := k.Deactivate(); err != nil {
		t.Fatal(err)
	}
	if err := k.Reactivate(); err != nil {
		t.Fatal(err)
	}
	o, err := k.Object(0)
	if err != nil || o.Behavior() == nil {
		t.Errorf("volatile object not re-created: %v", err)
	}
}

func TestDeleteObjectAndCluster(t *testing.T) {
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	k, ref := deploy(t, n, ClusterOptions{}, 0)
	b := f.bind(t, n, ref)
	ctx := context.Background()
	if _, _, err := b.Invoke(ctx, "Get", nil); err != nil {
		t.Fatal(err)
	}
	if err := k.DeleteObject(0); err != nil {
		t.Fatal(err)
	}
	if err := k.DeleteObject(0); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("double delete = %v", err)
	}
	// The interface is gone from server and relocator.
	if _, _, err := b.Invoke(ctx, "Get", nil); err == nil {
		t.Error("call to deleted object should fail")
	}
	if _, err := f.reloc.Lookup(ref.ID); !errors.Is(err, relocator.ErrUnknown) {
		t.Errorf("relocator entry should be removed: %v", err)
	}
	// Delete the cluster and capsule too.
	c, _ := n.Capsule(0)
	if err := c.DeleteCluster(k.ID().Seq); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteCluster(k.ID().Seq); !errors.Is(err, ErrNoSuchCluster) {
		t.Errorf("double cluster delete = %v", err)
	}
	if err := n.DeleteCapsule(0); err != nil {
		t.Fatal(err)
	}
	if err := n.DeleteCapsule(0); !errors.Is(err, ErrNoSuchCapsule) {
		t.Errorf("double capsule delete = %v", err)
	}
}

func TestCreateObjectOnDeactivatedCluster(t *testing.T) {
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	k, _ := deploy(t, n, ClusterOptions{}, 0)
	if err := k.Deactivate(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateObject("counter", values.Int(0)); !errors.Is(err, ErrDeactivated) {
		t.Errorf("create on deactivated = %v", err)
	}
}

func TestNodeCloseIsIdempotentAndTearsDown(t *testing.T) {
	f := newFixture()
	n := f.node(t, "alpha", NodeConfig{})
	_, ref := deploy(t, n, ClusterOptions{}, 0)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := n.CreateCapsule(); !errors.Is(err, ErrNodeClosed) {
		t.Errorf("create after close = %v", err)
	}
	if _, err := f.reloc.Lookup(ref.ID); !errors.Is(err, relocator.ErrUnknown) {
		t.Errorf("locations should be cleaned up: %v", err)
	}
}

// TestRegisterServant: a standalone servant gets a reference under the
// node's synthetic object, registered with the location registry and
// reachable over a typed binding; each servant gets its own nonce and an
// invalid type is refused before anything is registered.
func TestRegisterServant(t *testing.T) {
	f := newFixture()
	n := f.node(t, "a", NodeConfig{})
	before := len(f.reloc.Entries())
	ref, err := n.RegisterServant(counterType(), &counterBehavior{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.TypeName != "Counter" || ref.Endpoint != "sim://a" || ref.ID.Object != (naming.ObjectID{Cluster: naming.ClusterID{Capsule: naming.CapsuleID{Node: "a"}}}) {
		t.Fatalf("servant ref = %+v", ref)
	}
	if got, err := f.reloc.Lookup(ref.ID); err != nil || got != ref {
		t.Fatalf("registry lookup = %+v, %v", got, err)
	}
	other, err := n.RegisterServant(nil, &counterBehavior{})
	if err != nil || other.ID.Nonce == ref.ID.Nonce || other.TypeName != "" {
		t.Fatalf("second servant = %+v, %v", other, err)
	}
	if _, err := n.RegisterServant(&types.Interface{Kind: types.Operational}, &counterBehavior{}); err == nil {
		t.Fatal("an unnamed interface type was accepted")
	}
	if got := len(f.reloc.Entries()); got != before+2 {
		t.Fatalf("registry holds %d new entries, want 2", got-before)
	}

	b, err := channel.Bind(ref, channel.BindConfig{Transport: f.net.From("client"), Type: counterType()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if term, res, err := b.Invoke(context.Background(), "Inc", []values.Value{values.Int(2)}); err != nil || term != "OK" || !res[0].Equal(values.Int(2)) {
		t.Fatalf("Inc = %s %v %v", term, res, err)
	}
}
