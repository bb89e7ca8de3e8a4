package odp

import (
	"context"
	"testing"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/relocator"
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
	// Nothing pre-warms the cache: the first bind's lookup asks the
	// relocator, and the second bind's is answered from the cache.
	ref, _ := dep.Ref("BankManager")
	for i, want := range []relocator.CacheStats{{Misses: 1, Entries: 1}, {Hits: 1, Misses: 1, Entries: 1}} {
		b, err := s.Bind("client", ref, core.Contract{Require: core.TransparencySet(core.Location | core.Relocation)})
		if err != nil {
			t.Fatal(err)
		}
		term, _, err := b.Invoke(context.Background(), "CreateAccount", []values.Value{values.Str("alice")})
		b.Close()
		if err != nil || term != "OK" {
			t.Fatalf("bind %d: invoke = %q, %v", i+1, term, err)
		}
		if got := cache.Stats(); got != want {
			t.Fatalf("after bind %d: cache stats = %+v, want %+v", i+1, got, want)
		}
	}
}

// A host that bound before a migration and binds again after it finds the
// interface through its binding, not through a pushed cache entry: the
// second bind reads the stale cached location, and its first call follows
// the old home's "no such interface" with exactly one relocation and no
// error the caller sees.
func TestRebindAfterMigrationRelocatesOnce(t *testing.T) {
	s, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	coord := transactions.NewCoordinator()
	store := transactions.NewStore("b", nil)
	var nodes [2]*engineering.Node
	for i, name := range []string{"alpha", "beta"} {
		if nodes[i], err = s.CreateNode(name); err != nil {
			t.Fatal(err)
		}
		bank.RegisterBehavior(nodes[i].Behaviors(), coord, store)
	}
	dep, err := s.Deploy(nodes[0], bank.Template("branch-cbd"), values.Null())
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := dep.Ref("BankManager")
	contract := core.Contract{Require: core.TransparencySet(core.Location | core.Relocation)}
	ctx := context.Background()

	first, err := s.Bind("client", ref, contract)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if term, _, err := first.Invoke(ctx, "CreateAccount", []values.Value{values.Str("alice")}); err != nil || term != "OK" {
		t.Fatalf("first binding: invoke = %q, %v", term, err)
	}

	capsule, err := nodes[1].CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Cluster.MigrateTo(capsule); err != nil {
		t.Fatal(err)
	}

	second, err := s.Bind("client", ref, contract)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if got := second.Ref().Endpoint; got != nodes[0].Endpoint() {
		t.Fatalf("second bind resolved to %s; want the cached %s", got, nodes[0].Endpoint())
	}
	if term, _, err := second.Invoke(ctx, "CreateAccount", []values.Value{values.Str("bob")}); err != nil || term != "OK" {
		t.Fatalf("second binding: invoke = %q, %v", term, err)
	}
	if n := second.Stats().Relocations; n != 1 {
		t.Errorf("second binding relocated %d times, want 1", n)
	}
	if got := second.Ref().Endpoint; got != nodes[1].Endpoint() {
		t.Errorf("second binding ends at %s, want %s", got, nodes[1].Endpoint())
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
