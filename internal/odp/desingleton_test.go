package odp

import (
	"context"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/transactions"
	"repro/internal/typerepo"
	"repro/internal/values"
)

// The de-singletoned control plane keeps the facade's call-site
// semantics: a sharded bus carries deployment announcements, the
// relocator bridge, and the relocation cache; a replicated type
// repository serves the bind path.
func TestShardedBusAndReplicatedTypesServeSystem(t *testing.T) {
	if _, err := New(Config{BusShards: -1}); err == nil {
		t.Fatal("BusShards: -1 accepted")
	}
	s, err := New(Config{Seed: 1, BusShards: 4, TypeReplicas: 2, TraderShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if names := s.Bus.ShardNames(); len(names) != 4 {
		t.Fatalf("System.Bus shards = %v, want 4", names)
	}
	rep, ok := s.Types.(*typerepo.Replicated)
	if !ok {
		t.Fatal("System.Types is not the replicated front-end")
	}

	var deployed, relocated int
	cancelDep := s.Bus.Subscribe(TopicDeployed, nil, func(coordination.Event) { deployed++ })
	cancelRel := s.Bus.Subscribe(TopicRelocated, nil, func(coordination.Event) { relocated++ })
	defer cancelDep()
	defer cancelRel()

	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	coord := transactions.NewCoordinator()
	bank.RegisterBehavior(node.Behaviors(), coord, transactions.NewStore("b", nil))
	if _, err := s.Deploy(node, bank.Template("branch-x"), values.Record(
		values.F("city", values.Str("brisbane")),
	)); err != nil {
		t.Fatal(err)
	}
	if deployed != 1 {
		t.Fatalf("deployment events on sharded bus = %d, want 1", deployed)
	}
	if relocated == 0 {
		t.Fatal("no relocation events bridged onto the bus")
	}
	// Replicated reads actually served the deploy/bind path.
	contract := core.Contract{Require: core.TransparencySet(core.Access | core.Location)}
	b, err := s.ImportAndBind("client", "BankTeller", "city == 'brisbane'", contract)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, _, err := b.Invoke(context.Background(), "Balance", []values.Value{values.Str("g"), values.Str("x")}); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if st := rep.Stats(); st.Reads == 0 {
		t.Fatalf("no reads served by the replicated repository: %+v", st)
	}
}

// Breaker transitions surface on the event bus under TopicBreaker.
func TestBreakerTransitionsPublishOnBus(t *testing.T) {
	s, err := New(Config{Seed: 1, Breakers: &policy.BreakerConfig{
		ConsecutiveFailures: 2,
		OpenFor:             10 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var events []string
	cancel := s.Bus.Subscribe(TopicBreaker, nil, func(ev coordination.Event) {
		stV, _ := ev.Payload.FieldByName("state")
		st, _ := stV.AsString()
		events = append(events, st)
	})
	defer cancel()

	sm := s.SessionsFor("client")
	bs := sm.Breakers()
	if bs == nil {
		t.Fatal("no breaker set attached")
	}
	br := bs.For("sim://dead")
	for i := 0; i < 2; i++ {
		if ok, _ := br.Allow(); !ok {
			t.Fatal("breaker refused while closed")
		}
		br.Record(false)
	}
	if len(events) != 1 || events[0] != "open" {
		t.Fatalf("breaker events = %v, want [open]", events)
	}
	// After the cooling-off period, a successful probe re-closes — and
	// that transition is published too.
	time.Sleep(15 * time.Millisecond)
	ok, probe := br.Allow()
	if !ok || !probe {
		t.Fatalf("Allow after cool-off = (%v, %v), want probe", ok, probe)
	}
	br.Record(true)
	if len(events) != 2 || events[1] != "closed" {
		t.Fatalf("breaker events = %v, want [open closed]", events)
	}
}
