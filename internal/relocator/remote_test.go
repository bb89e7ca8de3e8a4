package relocator

import (
	"context"
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
