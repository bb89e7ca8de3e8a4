package relocator

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/engineering"
	"repro/internal/naming"
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

func TestRemoteRelocatorRoundTrip(t *testing.T) {
	net := netsim.New(1)
	local, remote := deployRelocator(t, net)

	in := ref(7, "sim://somewhere", 0)
	if err := remote.Register(in); err != nil {
		t.Fatalf("remote Register: %v", err)
	}
	// Visible locally and remotely.
	if got, err := local.Lookup(in.ID); err != nil || got != in {
		t.Errorf("local Lookup = %+v, %v", got, err)
	}
	got, err := remote.Lookup(in.ID)
	if err != nil || got != in {
		t.Errorf("remote Lookup = %+v, %v", got, err)
	}
	// Move through the proxy.
	moved, err := remote.Move(in.ID, "sim://elsewhere")
	if err != nil || moved.Endpoint != "sim://elsewhere" || moved.Epoch != 1 {
		t.Errorf("remote Move = %+v, %v", moved, err)
	}
	// Unknown id surfaces ErrUnknown through the proxy.
	ghost := ref(99, "", 0)
	if _, err := remote.Lookup(ghost.ID); !errors.Is(err, ErrUnknown) {
		t.Errorf("remote Lookup(ghost) = %v", err)
	}
	if _, err := remote.Move(ghost.ID, "sim://x"); !errors.Is(err, ErrUnknown) {
		t.Errorf("remote Move(ghost) = %v", err)
	}
	// Stale registration rejected remotely.
	if err := remote.Register(in); err == nil {
		t.Error("stale remote Register should fail")
	}
	// Remove (announcement) eventually clears the entry.
	remote.Remove(in.ID)
	deadlineLookup(t, local, in.ID)
}

func deadlineLookup(t *testing.T, r *Relocator, id naming.InterfaceID) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := r.Lookup(id); errors.Is(err, ErrUnknown) {
			return
		}
		time.Sleep(time.Millisecond) // Remove is an announcement: asynchronous
	}
	t.Fatal("entry not removed")
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
