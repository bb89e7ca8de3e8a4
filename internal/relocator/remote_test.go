package relocator

import (
	"context"
	"errors"
	"testing"

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
// short or long call to any declared operation must come back as the
// Error termination, not a panic.
func TestServantArity(t *testing.T) {
	s := &Servant{R: New()}
	for _, op := range InterfaceType().Operations {
		n := len(op.Params)
		calls := [][]values.Value{make([]values.Value, n+1)}
		if n > 0 {
			calls = append(calls, nil, make([]values.Value, n-1))
		}
		for _, args := range calls {
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

// direct carries a proxy's calls straight to a servant in process.
type direct struct{ channel.Handler }

func (direct) Close() error { return nil }

// TestRemoteFailingStoreIsNotUnknown: behind a proxy, a store that fails
// — here a sharded front-end with no shards — answers with its own
// sentinel, not ErrUnknown, which a sharded front-end's drain would take
// to mean that a client removed the entry.
func TestRemoteFailingStoreIsNotUnknown(t *testing.T) {
	r := NewRemote(direct{&Servant{R: NewSharded()}})
	id := ref(1, "sim://a", 1).ID
	if _, err := r.Lookup(id); !errors.Is(err, ErrNoShards) || errors.Is(err, ErrUnknown) {
		t.Errorf("Lookup = %v, want ErrNoShards", err)
	}
	if _, err := r.Move(id, "sim://b"); !errors.Is(err, ErrNoShards) || errors.Is(err, ErrUnknown) {
		t.Errorf("Move = %v, want ErrNoShards", err)
	}
}
