package odp

import (
	"context"
	"testing"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/trader"
	"repro/internal/transactions"
	"repro/internal/values"
)

func TestShardTraderServesDeployAndImport(t *testing.T) {
	s, err := New(Config{Seed: 1, TraderShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Directory
	if legs := st.LegStats(); len(legs) != 4 {
		t.Fatalf("shards = %v", legs)
	}

	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	coord := transactions.NewCoordinator()
	bank.RegisterBehavior(node.Behaviors(), coord, transactions.NewStore("b", nil))
	if _, err := s.Deploy(node, bank.Template("branch-cbd"), values.Record(
		values.F("city", values.Str("brisbane")),
	)); err != nil {
		t.Fatal(err)
	}
	// There is no trader beside the front-end for an export to strand in.
	if st.ShardStats().Exports == 0 {
		t.Fatal("no exports reached the front-end")
	}

	contract := core.Contract{Require: core.TransparencySet(core.Access | core.Location)}
	b, err := s.ImportAndBind("client", "BankTeller", "city == 'brisbane'", contract)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	term, _, err := b.Invoke(context.Background(), "Balance", []values.Value{values.Str("ghost"), values.Str("x")})
	if err != nil {
		t.Fatalf("invoke through sharded directory: %v", err)
	}
	_ = term // any terminations is fine; the wire round-trip is the point

	if _, err := New(Config{TraderShards: -1}); err == nil {
		t.Fatal("TraderShards: -1 accepted")
	}
}

func TestRelocationCacheServesBindings(t *testing.T) {
	s, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cache := s.RelocationCache()
	if cache == nil {
		t.Fatal("cache not installed")
	}
	// The bench shim is the same cache, not a second one.
	if again := s.EnableRelocationCache(8); again != cache {
		t.Fatal("EnableRelocationCache not idempotent")
	}

	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	coord := transactions.NewCoordinator()
	bank.RegisterBehavior(node.Behaviors(), coord, transactions.NewStore("b", nil))
	dep, err := s.Deploy(node, bank.Template("branch-cbd"), values.Null())
	if err != nil {
		t.Fatal(err)
	}
	// Deployment registered locations; the subscription pre-warmed the
	// cache, so the binding's locator lookup is a hit.
	ref, _ := dep.Ref("BankManager")
	b, err := s.Bind("client", ref, core.Contract{Require: core.TransparencySet(core.Location | core.Relocation)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if term, _, err := b.Invoke(context.Background(), "CreateAccount",
		[]values.Value{values.Str("alice")}); err != nil || term != "OK" {
		t.Fatalf("invoke = %q, %v", term, err)
	}
	stats := cache.Stats()
	if stats.Hits == 0 {
		t.Fatalf("no cache hits: %+v", stats)
	}
}

// TestFederatedShardedSystemsKeepTheirOffers: shard names derive from
// Config.Name, so two sharded systems federated at one origin mint
// distinct offer ids. Shards named alike in every system would mint the
// same ids, and the origin's dedupe by id would drop one of the offers.
func TestFederatedShardedSystemsKeepTheirOffers(t *testing.T) {
	origin, err := New(Config{Name: "origin"})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	if err := origin.Types.RegisterInterface(bank.TellerType()); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b"} {
		s, err := New(Config{Name: name, TraderShards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Types.RegisterInterface(bank.TellerType()); err != nil {
			t.Fatal(err)
		}
		ref := naming.InterfaceRef{ID: naming.InterfaceID{Nonce: uint64(i + 1)}, TypeName: "BankTeller", Endpoint: naming.Endpoint("sim://" + name)}
		if _, err := s.Directory.Export("BankTeller", ref, values.Null()); err != nil {
			t.Fatal(err)
		}
		origin.Directory.Link(name, s.Directory)
	}
	offers, err := origin.Directory.Import(trader.ImportRequest{ServiceType: "BankTeller", MaxHops: 1})
	if err != nil || len(offers) != 2 {
		t.Fatalf("origin import = %d offers, %v; want both systems' offer", len(offers), err)
	}
}
