package relocator

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/engineering"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/types"
	"repro/internal/values"
)

// deployRelocator hosts a Relocator as an ODP object on its own node and
// returns a Remote proxy bound to it.
func deployRelocator(t *testing.T, net *netsim.Network) (*Relocator, *Remote) {
	t.Helper()
	r := New()
	node, err := engineering.NewNode(engineering.NodeConfig{
		ID:        "relocator-host",
		Endpoint:  "sim://relocator-host",
		Transport: net.From("relocator-host"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	node.Behaviors().Register("odp.relocator", func(values.Value) (engineering.Behavior, error) {
		return &Servant{R: r}, nil
	})
	capsule, err := node.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cluster.CreateObject("odp.relocator", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	relocRef, err := obj.AddInterface(InterfaceType())
	if err != nil {
		t.Fatal(err)
	}
	b, err := channel.Bind(relocRef, channel.BindConfig{
		Transport: net.From("client"), Type: InterfaceType(),
	})
	if err != nil {
		t.Fatal(err)
	}
	remote := NewRemote(b)
	t.Cleanup(func() { remote.Close() })
	return r, remote
}

func TestNodeWithRemoteLocationRegistry(t *testing.T) {
	// A whole node uses a relocator hosted on ANOTHER node as its location
	// registry — the genuinely distributed form of location transparency.
	net := netsim.New(2)
	central, remote := deployRelocator(t, net)

	appNode, err := engineering.NewNode(engineering.NodeConfig{
		ID:        "app",
		Endpoint:  "sim://app",
		Transport: net.From("app"),
		Locations: remote, // Remote satisfies engineering.LocationRegistry
	})
	if err != nil {
		t.Fatal(err)
	}
	defer appNode.Close()
	appNode.Behaviors().Register("echo", func(values.Value) (engineering.Behavior, error) {
		return echoBehavior{}, nil
	})
	capsule, err := appNode.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cluster.CreateObject("echo", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	echoType := types.OpInterface("Echo",
		types.Op("Echo", types.Params(types.P("x", values.TString())),
			types.Term("OK", types.P("x", values.TString()))))
	appRef, err := obj.AddInterface(echoType)
	if err != nil {
		t.Fatal(err)
	}
	// The app node's interface registration landed in the CENTRAL relocator.
	got, err := central.Lookup(appRef.ID)
	if err != nil || got.Endpoint != "sim://app" {
		t.Fatalf("central registry entry = %+v, %v", got, err)
	}
	// A client on a third host binds with the remote locator and a stale
	// endpoint hint: location transparency across three parties.
	stale := appRef
	stale.Endpoint = "sim://wrong"
	clientSide, err := channel.Bind(appRef, channel.BindConfig{
		Transport: net.From("customer"),
		Locator:   remote,
		Policy:    policy.RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clientSide.Close()
	term, res, err := clientSide.Invoke(context.Background(), "Echo", []values.Value{values.Str("hi")})
	if err != nil || term != "OK" {
		t.Fatalf("Invoke = %q, %v, %v", term, res, err)
	}
}

type echoBehavior struct{}

func (echoBehavior) Invoke(_ context.Context, _ string, args []values.Value) (string, []values.Value, error) {
	return "OK", args, nil
}

// TestServantArity: a servant registered untyped, or joined to a group in
// process, has no stub checking argument counts in front of it, so a
// short call to any declared operation must come back as the Error
// termination, not a panic.
func TestServantArity(t *testing.T) {
	s := &Servant{R: New()}
	for _, op := range InterfaceType().Operations {
		n := len(op.Params)
		if got, ok := arity[op.Name]; !ok || got != n {
			t.Errorf("arity[%s] = %d, %v; the interface type declares %d parameters", op.Name, got, ok, n)
		}
		if n == 0 {
			continue
		}
		for _, args := range [][]values.Value{nil, make([]values.Value, n-1)} {
			term, res, err := s.Invoke(context.Background(), op.Name, args)
			if err != nil || term != "Error" || len(res) != 1 {
				t.Errorf("%s with %d of %d arguments = %q, %v, %v; want the Error termination", op.Name, len(args), n, term, res, err)
			}
		}
	}
	if _, _, err := s.Invoke(context.Background(), "NoSuchOp", nil); err == nil {
		t.Error("unknown operation should be an error")
	}
}

// deadlineCarrier records how far away each operation's context deadline
// was, then fails the call the way a partitioned host would: by waiting a
// deadline out — a millisecond child of the proxy's context, so the test
// does not sit through the proxy's own.
type deadlineCarrier struct {
	mu   sync.Mutex
	left map[string]time.Duration // op -> time left at the call; absent without a deadline
}

func (c *deadlineCarrier) Invoke(ctx context.Context, op string, _ []values.Value) (string, []values.Value, error) {
	if dl, ok := ctx.Deadline(); ok {
		c.mu.Lock()
		c.left[op] = time.Until(dl)
		c.mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	<-ctx.Done()
	return "", nil, ctx.Err()
}

func (c *deadlineCarrier) Close() error { return nil }

// TestRemoteCallsCarryADeadline: every operation of the proxy's table
// reaches its carrier under the 30 s call deadline, and a call that waits
// its deadline out returns an error wrapping context.DeadlineExceeded.
func TestRemoteCallsCarryADeadline(t *testing.T) {
	c := &deadlineCarrier{left: map[string]time.Duration{}}
	r := NewRemote(c)
	id := ref(1, "sim://a", 1).ID
	ops := map[string]func() error{
		"Register": func() error { return r.Register(ref(1, "sim://a", 1)) },
		"Lookup":   func() error { _, err := r.Lookup(id); return err },
		"Move":     func() error { _, err := r.Move(id, "sim://b"); return err },
		"Remove":   func() error { r.Remove(id); return context.DeadlineExceeded }, // has no error to return
		"Snapshot": func() error { _, err := r.Snapshot(); return err },
	}
	for op, do := range ops {
		if err := do(); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s against a carrier that never answers = %v, want context.DeadlineExceeded", op, err)
		}
		if left, ok := c.left[op]; !ok || left > 30*time.Second || left < 29*time.Second {
			t.Errorf("%s reached the carrier with deadline %v away (set: %v), want 30s", op, left, ok)
		}
	}
}
