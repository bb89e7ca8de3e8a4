package coordination

import (
	"errors"
	"testing"

	"repro/internal/trader"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

// tradingFixture is what one row of the trader's conformance table
// builds: a shard, every local trader an update through it must reach,
// the type repository they share, and the replica group when that is the
// carrier.
type tradingFixture struct {
	shard   trader.Shard
	backing []*trader.Trader
	repo    *typerepo.Local
	group   *ReplicaGroup
}

// tradingCarriers is the trader's conformance table. Group members share
// the trader name "tg": offer ids are minted from the name and a local
// counter, so the sequenced update stream yields identical ids on every
// replica (no divergence).
var tradingCarriers = []struct {
	name  string
	build func(t *testing.T, repo *typerepo.Local) tradingFixture
}{
	{"local", func(_ *testing.T, repo *typerepo.Local) tradingFixture {
		tr := trader.New("tg", repo)
		return tradingFixture{shard: tr, backing: []*trader.Trader{tr}}
	}},
	{"binding", func(t *testing.T, repo *typerepo.Local) tradingFixture {
		tr := trader.New("tg", repo)
		remote := trader.NewRemote(loopback(t, trader.InterfaceType(), &trader.Servant{T: tr}))
		t.Cleanup(func() { remote.Close() })
		return tradingFixture{shard: remote, backing: []*trader.Trader{tr}}
	}},
	{"replicagroup", func(t *testing.T, repo *typerepo.Local) tradingFixture {
		t0, t1 := trader.New("tg", repo), trader.New("tg", repo)
		g := replicaGroupOf(t, &trader.Servant{T: t0}, &trader.Servant{T: t1})
		return tradingFixture{shard: trader.NewRemote(g), backing: []*trader.Trader{t0, t1}, group: g}
	}},
}

// overTradingCarriers runs check once per row of the table, over a
// repository holding BankTeller and its subtype BankManager.
func overTradingCarriers(t *testing.T, check func(t *testing.T, f tradingFixture)) {
	for _, c := range tradingCarriers {
		t.Run(c.name, func(t *testing.T) {
			repo := typerepo.New()
			for _, it := range []*types.Interface{tellerType(), managerType()} {
				if err := repo.RegisterInterface(it); err != nil {
					t.Fatal(err)
				}
			}
			f := c.build(t, repo)
			f.repo = repo
			check(t, f)
		})
	}
}

func TestTradingGroupReplicatesOffers(t *testing.T) {
	overTradingCarriers(t, func(t *testing.T, f tradingFixture) {
		ref := wpRef(7, "sim://a", 0)
		id, err := f.shard.Export("BankTeller", ref, values.Record(values.F("queue", values.Int(2))))
		if err != nil {
			t.Fatalf("Export: %v", err)
		}
		// Every trader behind the carrier holds the offer under the agreed id.
		for i, m := range f.backing {
			offers, err := m.Import(trader.ImportRequest{ServiceType: "BankTeller"})
			if err != nil || len(offers) != 1 || offers[0].ID != id {
				t.Fatalf("trader %d: offers = %+v, %v", i, offers, err)
			}
		}
		// Constraint, preference and properties survive the trip.
		offers, err := f.shard.Import(trader.ImportRequest{
			ServiceType: "BankTeller",
			Constraint:  "queue < 5",
			Preference:  trader.Preference{Kind: trader.PrefMin, Expr: "queue"},
		})
		if err != nil || len(offers) != 1 {
			t.Fatalf("Import = %+v, %v", offers, err)
		}
		got := offers[0]
		if got.ID != id || got.ServiceType != "BankTeller" || got.Ref != ref {
			t.Fatalf("offer = %+v", got)
		}
		if q, ok := got.Properties.FieldByName("queue"); !ok || !q.Equal(values.Int(2)) {
			t.Fatalf("properties = %v", got.Properties)
		}
		if offers, err := f.shard.Import(trader.ImportRequest{ServiceType: "BankTeller", Constraint: "queue > 5"}); err != nil || len(offers) != 0 {
			t.Fatalf("constrained Import = %+v, %v", offers, err)
		}
		// Failures surface as errors.
		if _, err := f.shard.Import(trader.ImportRequest{ServiceType: "Ghost"}); err == nil {
			t.Fatal("import of unknown type should fail")
		}
		ghost := ref
		ghost.TypeName = "Ghost"
		if _, err := f.shard.Export("Ghost", ghost, values.Null()); err == nil {
			t.Fatal("export of unknown type should fail")
		}
		// A member crash is masked: drop one member, reads and writes continue.
		if f.group != nil {
			if err := f.group.Remove("m1"); err != nil {
				t.Fatal(err)
			}
			f.backing = f.backing[:1]
			if _, err := f.shard.Import(trader.ImportRequest{ServiceType: "BankTeller"}); err != nil {
				t.Fatalf("Import after member loss: %v", err)
			}
		}
		if err := f.shard.Withdraw(id); err != nil {
			t.Fatalf("Withdraw: %v", err)
		}
		for i, m := range f.backing {
			if m.Len() != 0 {
				t.Fatalf("trader %d holds %d offers after withdraw", i, m.Len())
			}
		}
		offers, err = f.shard.Import(trader.ImportRequest{ServiceType: "BankTeller"})
		if err != nil || len(offers) != 0 {
			t.Fatalf("offers after withdraw = %+v, %v", offers, err)
		}
	})
}

// TestTradingNoSuchOfferTyped: withdrawing an offer the trader does not
// hold is ErrNoSuchOffer whatever carried the call — the sentinel the
// sharded front-end's withdraw fallback and its migration branch on.
func TestTradingNoSuchOfferTyped(t *testing.T) {
	overTradingCarriers(t, func(t *testing.T, f tradingFixture) {
		if err := f.shard.Withdraw("s0/999"); !errors.Is(err, trader.ErrNoSuchOffer) {
			t.Fatalf("Withdraw(s0/999) = %v, want ErrNoSuchOffer", err)
		}
		// Behind a front-end whose prefix routing points at another shard
		// first, the offer is still found and a second withdraw still
		// answers with the sentinel.
		fe := trader.NewSharded("fe", f.repo, 0)
		if err := fe.AddShard("other", trader.New("other", f.repo)); err != nil {
			t.Fatal(err)
		}
		if err := fe.AddShard("carried", f.shard); err != nil {
			t.Fatal(err)
		}
		o := trader.Offer{ID: "other/77", ServiceType: "BankTeller", Ref: wpRef(77, "sim://a", 0), Properties: values.Record()}
		if err := f.shard.Install(o); err != nil {
			t.Fatal(err)
		}
		if err := fe.Withdraw(o.ID); err != nil {
			t.Fatalf("front-end Withdraw of an offer homed off its prefix = %v", err)
		}
		if err := fe.Withdraw(o.ID); !errors.Is(err, trader.ErrNoSuchOffer) {
			t.Fatalf("second front-end Withdraw = %v, want ErrNoSuchOffer", err)
		}
	})
}

// Whatever carries it, the shard slots into the sharded trader, and a
// rebalance migration (Install preserving offer identity) lands on every
// trader behind the carrier.
func TestTradingGroupAsShard(t *testing.T) {
	overTradingCarriers(t, func(t *testing.T, f tradingFixture) {
		fe := trader.NewSharded("fe", f.repo, 0)
		if err := fe.AddShard("plain", trader.New("plain", f.repo)); err != nil {
			t.Fatal(err)
		}
		const n = 16
		ids := make(map[string]bool, 2*n)
		for i := 0; i < n; i++ {
			for _, st := range []string{"BankTeller", "BankManager"} {
				ref := wpRef(uint64(100+i), "sim://a", 0)
				ref.TypeName = st
				id, err := fe.Export(st, ref, values.Record())
				if err != nil {
					t.Fatalf("Export %s %d: %v", st, i, err)
				}
				ids[id] = true
			}
		}
		// The ring change migrates whole buckets onto the new shard.
		if err := fe.AddShard("carried", f.shard); err != nil {
			t.Fatal(err)
		}
		offers, err := fe.Import(trader.ImportRequest{ServiceType: "BankTeller"})
		if err != nil || len(offers) != 2*n {
			t.Fatalf("front-end Import = %d offers, %v", len(offers), err)
		}
		for _, o := range offers {
			if !ids[o.ID] {
				t.Fatalf("offer %s changed identity in migration", o.ID)
			}
		}
		// The ring is a pure function of the shard names, and under these
		// a bucket moves; every trader behind the carrier holds it.
		held := f.backing[0].Len()
		if held == 0 {
			t.Fatal("no bucket migrated onto the carried shard: pick shard names under which one does")
		}
		for i, m := range f.backing {
			if m.Len() != held {
				t.Fatalf("traders diverge: %d holds %d offers, 0 holds %d", i, m.Len(), held)
			}
		}
		if fe.ShardStats().Migrated != uint64(held) {
			t.Fatalf("migrated %d offers, the carried shard holds %d", fe.ShardStats().Migrated, held)
		}
	})
}
