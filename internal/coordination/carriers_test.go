package coordination

import (
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/engineering"
	"repro/internal/netsim"
	"repro/internal/types"
)

// The conformance tables (relocator_, trader_ and typerepo_conformance_test.go)
// hold each infrastructure service to one behaviour however its calls are
// carried: every check runs against the local store and against the
// service's Remote proxy over each carrier. They live beside the groups,
// which supply every carrier but the binding; these are the carriers.

// loopback hosts h as an interface of a node of its own and returns a
// binding to it from another host of the same simulated network: the
// single-peer carrier. A nil type serves and binds h unchecked.
func loopback(t *testing.T, it *types.Interface, h channel.Handler) *channel.Binding {
	t.Helper()
	net := netsim.New(1)
	node, err := engineering.NewNode(engineering.NodeConfig{
		ID: "server", Endpoint: "sim://server", Transport: net.From("server"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	ref, err := node.RegisterServant(it, h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := channel.Bind(ref, channel.BindConfig{Transport: net.From("client"), Type: it})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replicaGroupOf joins in-process servants to a replica group as members
// m0, m1, ….
func replicaGroupOf(t *testing.T, servants ...servant) *ReplicaGroup {
	t.Helper()
	g := NewReplicaGroup()
	for i, s := range servants {
		if err := g.Add(fmt.Sprintf("m%d", i), Member(s)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}
