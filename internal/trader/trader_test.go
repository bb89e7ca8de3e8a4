package trader

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/constraint"
	"repro/internal/naming"
	"repro/internal/policy"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

func tellerT() *types.Interface {
	return types.OpInterface("BankTeller",
		types.Op("Deposit",
			types.Params(types.P("a", values.TString()), types.P("d", values.TInt())),
			types.Term("OK", types.P("b", values.TInt())),
		),
	)
}

func managerT() *types.Interface {
	return types.Extend("BankManager", tellerT(),
		types.Op("CreateAccount",
			types.Params(types.P("c", values.TString())),
			types.Term("OK", types.P("a", values.TString())),
		),
	)
}

func printerT() *types.Interface {
	return types.OpInterface("Printer", types.Announce("Print", types.P("doc", values.TBytes())))
}

func repoWithBank(t *testing.T) typerepo.Repository {
	t.Helper()
	repo := typerepo.New()
	for _, it := range []*types.Interface{tellerT(), managerT(), printerT()} {
		if err := repo.RegisterInterface(it); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// frontEnd is the trading function as odp builds it: a front-end named
// name over n local stores named <name>-s0…, returned beside it. At n = 1
// it is what the federation tests link.
func frontEnd(t *testing.T, repo typerepo.Repository, name string, n int) (*ShardedTrader, []*Trader) {
	t.Helper()
	fe := NewSharded(name, repo, 0)
	stores := make([]*Trader, n)
	for i := range stores {
		sn := fmt.Sprintf("%s-s%d", name, i)
		stores[i] = New(sn, repo)
		if err := fe.AddShard(sn, stores[i]); err != nil {
			t.Fatal(err)
		}
	}
	return fe, stores
}

func refOf(typeName string, nonce uint64) naming.InterfaceRef {
	return naming.InterfaceRef{
		ID: naming.InterfaceID{
			Object: naming.ObjectID{
				Cluster: naming.ClusterID{Capsule: naming.CapsuleID{Node: "n", Seq: 0}, Seq: 0},
				Seq:     0,
			},
			Seq:   0,
			Nonce: nonce,
		},
		TypeName: typeName,
		Endpoint: "sim://n",
	}
}

func rec(fs ...values.Field) values.Value { return values.Record(fs...) }

func TestExportImportBasic(t *testing.T) {
	tr := New("T1", repoWithBank(t))
	id, err := tr.Export("BankTeller", refOf("BankTeller", 1),
		rec(values.F("branch", values.Str("cbd")), values.F("queue", values.Int(3))))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	got, err := tr.Offer(id)
	if err != nil || got.ServiceType != "BankTeller" {
		t.Errorf("Offer = %+v, %v", got, err)
	}
	offers, err := tr.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil || len(offers) != 1 {
		t.Fatalf("Import = %v, %v", offers, err)
	}
	if offers[0].Ref.ID.Nonce != 1 {
		t.Errorf("ref = %+v", offers[0].Ref)
	}
}

func TestExportTypeChecking(t *testing.T) {
	tr := New("T1", repoWithBank(t))
	// Subtype substitutability: a BankManager interface may be offered as
	// a BankTeller service.
	if _, err := tr.Export("BankTeller", refOf("BankManager", 1), values.Null()); err != nil {
		t.Errorf("manager-as-teller export: %v", err)
	}
	// But not the reverse.
	if _, err := tr.Export("BankManager", refOf("BankTeller", 2), values.Null()); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("teller-as-manager export = %v", err)
	}
	// Unknown types are rejected.
	if _, err := tr.Export("Ghost", refOf("Ghost", 3), values.Null()); !errors.Is(err, ErrTypeUnknown) {
		t.Errorf("unknown service type = %v", err)
	}
	if _, err := tr.Export("BankTeller", refOf("Ghost", 4), values.Null()); !errors.Is(err, ErrTypeUnknown) {
		t.Errorf("unknown offered type = %v", err)
	}
	// Properties must be a record (or null).
	if _, err := tr.Export("BankTeller", refOf("BankTeller", 5), values.Int(3)); !errors.Is(err, ErrBadProps) {
		t.Errorf("non-record props = %v", err)
	}
}

func TestImportSubtypeMatching(t *testing.T) {
	tr := New("T1", repoWithBank(t))
	if _, err := tr.Export("BankTeller", refOf("BankTeller", 1), values.Null()); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Export("BankManager", refOf("BankManager", 2), values.Null()); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Export("Printer", refOf("Printer", 3), values.Null()); err != nil {
		t.Fatal(err)
	}
	// Importing BankTeller finds both the teller and the manager offer.
	offers, err := tr.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil || len(offers) != 2 {
		t.Fatalf("Import teller = %d offers, %v", len(offers), err)
	}
	// Importing BankManager finds only the manager.
	offers, err = tr.Import(ImportRequest{ServiceType: "BankManager"})
	if err != nil || len(offers) != 1 || offers[0].Ref.ID.Nonce != 2 {
		t.Fatalf("Import manager = %v, %v", offers, err)
	}
	// Unknown service type.
	if _, err := tr.Import(ImportRequest{ServiceType: "Ghost"}); !errors.Is(err, ErrTypeUnknown) {
		t.Errorf("unknown import = %v", err)
	}
	if _, err := tr.Import(ImportRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty import = %v", err)
	}
	if _, err := tr.Import(ImportRequest{ServiceType: "BankTeller", MaxHops: -1}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative hops = %v", err)
	}
}

func TestImportConstraints(t *testing.T) {
	tr := New("T1", repoWithBank(t))
	for i, queue := range []int64{5, 1, 9} {
		_, err := tr.Export("BankTeller", refOf("BankTeller", uint64(i+1)),
			rec(values.F("queue", values.Int(queue)), values.F("branch", values.Str(fmt.Sprintf("b%d", i)))))
		if err != nil {
			t.Fatal(err)
		}
	}
	offers, err := tr.Import(ImportRequest{ServiceType: "BankTeller", Constraint: "queue < 6"})
	if err != nil || len(offers) != 2 {
		t.Fatalf("constrained import = %d, %v", len(offers), err)
	}
	offers, err = tr.Import(ImportRequest{ServiceType: "BankTeller", Constraint: "branch == 'b1'"})
	if err != nil || len(offers) != 1 || offers[0].Ref.ID.Nonce != 2 {
		t.Fatalf("string constraint = %v, %v", offers, err)
	}
	// A constraint referencing a missing property matches nothing (not an error).
	offers, err = tr.Import(ImportRequest{ServiceType: "BankTeller", Constraint: "missing == 1"})
	if err != nil || len(offers) != 0 {
		t.Fatalf("missing-prop constraint = %v, %v", offers, err)
	}
	// A syntactically bad constraint is an error.
	if _, err := tr.Import(ImportRequest{ServiceType: "BankTeller", Constraint: "(("}); !errors.Is(err, constraint.ErrSyntax) {
		t.Errorf("bad constraint = %v", err)
	}
}

func TestImportPreferences(t *testing.T) {
	tr := New("T1", repoWithBank(t))
	for i, queue := range []int64{5, 1, 9} {
		if _, err := tr.Export("BankTeller", refOf("BankTeller", uint64(i+1)),
			rec(values.F("queue", values.Int(queue)))); err != nil {
			t.Fatal(err)
		}
	}
	// Min queue first.
	offers, err := tr.Import(ImportRequest{
		ServiceType: "BankTeller",
		Preference:  Preference{Kind: PrefMin, Expr: "queue"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if offers[0].Ref.ID.Nonce != 2 || offers[2].Ref.ID.Nonce != 3 {
		t.Errorf("min order = %v", nonces(offers))
	}
	// Max queue first, truncated.
	offers, err = tr.Import(ImportRequest{
		ServiceType: "BankTeller",
		Preference:  Preference{Kind: PrefMax, Expr: "queue"},
		MaxMatches:  1,
	})
	if err != nil || len(offers) != 1 || offers[0].Ref.ID.Nonce != 3 {
		t.Errorf("max truncated = %v, %v", nonces(offers), err)
	}
	// First preserves export order.
	offers, err = tr.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil {
		t.Fatal(err)
	}
	if offers[0].Ref.ID.Nonce != 1 || offers[1].Ref.ID.Nonce != 2 {
		t.Errorf("first order = %v", nonces(offers))
	}
	// Random returns all offers, just permuted.
	offers, err = tr.Import(ImportRequest{
		ServiceType: "BankTeller",
		Preference:  Preference{Kind: PrefRandom},
	})
	if err != nil || len(offers) != 3 {
		t.Errorf("random = %v, %v", nonces(offers), err)
	}
	// Bad preference expression is an error.
	if _, err := tr.Import(ImportRequest{
		ServiceType: "BankTeller",
		Preference:  Preference{Kind: PrefMax, Expr: "(("},
	}); !errors.Is(err, constraint.ErrSyntax) {
		t.Errorf("bad pref expr = %v", err)
	}
	// Offers that cannot be scored sort after those that can.
	if _, err := tr.Export("BankTeller", refOf("BankTeller", 4), values.Null()); err != nil {
		t.Fatal(err)
	}
	offers, err = tr.Import(ImportRequest{
		ServiceType: "BankTeller",
		Preference:  Preference{Kind: PrefMin, Expr: "queue"},
	})
	if err != nil || offers[len(offers)-1].Ref.ID.Nonce != 4 {
		t.Errorf("unscoreable ordering = %v, %v", nonces(offers), err)
	}
}

func nonces(offers []Offer) []uint64 {
	out := make([]uint64, len(offers))
	for i, o := range offers {
		out[i] = o.Ref.ID.Nonce
	}
	return out
}

func TestWithdrawAndModify(t *testing.T) {
	tr := New("T1", repoWithBank(t))
	id, err := tr.Export("BankTeller", refOf("BankTeller", 1), rec(values.F("queue", values.Int(9))))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Modify(id, rec(values.F("queue", values.Int(1)))); err != nil {
		t.Fatal(err)
	}
	offers, err := tr.Import(ImportRequest{ServiceType: "BankTeller", Constraint: "queue == 1"})
	if err != nil || len(offers) != 1 {
		t.Fatalf("after modify = %v, %v", offers, err)
	}
	if err := tr.Modify(id, values.Int(1)); !errors.Is(err, ErrBadProps) {
		t.Errorf("bad modify = %v", err)
	}
	if err := tr.Withdraw(id); err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw(id); !errors.Is(err, ErrNoSuchOffer) {
		t.Errorf("double withdraw = %v", err)
	}
	if err := tr.Modify(id, values.Null()); !errors.Is(err, ErrNoSuchOffer) {
		t.Errorf("modify withdrawn = %v", err)
	}
	if _, err := tr.Offer(id); !errors.Is(err, ErrNoSuchOffer) {
		t.Errorf("offer withdrawn = %v", err)
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestFederation(t *testing.T) {
	repo := repoWithBank(t)
	t1, _ := frontEnd(t, repo, "T1", 1)
	t2, _ := frontEnd(t, repo, "T2", 1)
	t3, _ := frontEnd(t, repo, "T3", 1)
	// Chain T1 -> T2 -> T3.
	t1.Link("t2", t2)
	t2.Link("t3", t3)
	if _, err := t2.Export("BankTeller", refOf("BankTeller", 2), values.Null()); err != nil {
		t.Fatal(err)
	}
	if _, err := t3.Export("BankTeller", refOf("BankTeller", 3), values.Null()); err != nil {
		t.Fatal(err)
	}

	// Hops 0: nothing local.
	offers, err := t1.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil || len(offers) != 0 {
		t.Fatalf("hops 0 = %v, %v", nonces(offers), err)
	}
	// Hops 1: sees T2's offer only.
	offers, err = t1.Import(ImportRequest{ServiceType: "BankTeller", MaxHops: 1})
	if err != nil || len(offers) != 1 || offers[0].Ref.ID.Nonce != 2 {
		t.Fatalf("hops 1 = %v, %v", nonces(offers), err)
	}
	// Hops 2: sees both.
	offers, err = t1.Import(ImportRequest{ServiceType: "BankTeller", MaxHops: 2})
	if err != nil || len(offers) != 2 {
		t.Fatalf("hops 2 = %v, %v", nonces(offers), err)
	}
	if st := t1.ShardStats(); st.Federated == 0 {
		t.Errorf("federation stats = %+v", st)
	}
}

// TestImportAtScale: a trader answers exactly the offers a constraint
// selects however many it holds, in the order a preference expression
// sets, and a federated import reaches offers only as many links away as
// its hop budget allows.
func TestImportAtScale(t *testing.T) {
	repo := repoWithBank(t)
	cities := []string{"brisbane", "perth", "sydney"}
	// populate exports that many tellers to tr; the i-th has queue i%10 and
	// city cities[i%3].
	populate := func(t *testing.T, tr Shard, offers int) {
		for i := 0; i < offers; i++ {
			if _, err := tr.Export("BankTeller", refOf("BankTeller", uint64(i+1)), rec(
				values.F("queue", values.Int(int64(i%10))), values.F("city", values.Str(cities[i%3])))); err != nil {
				t.Fatal(err)
			}
		}
	}
	queue := func(o Offer) int64 {
		v, _ := o.Properties.FieldByName("queue")
		q, _ := v.AsInt()
		return q
	}
	for _, offers := range []int{10, 100, 1000} {
		t.Run(fmt.Sprintf("offers=%d/simple", offers), func(t *testing.T) {
			tr := New("T", repo)
			populate(t, tr, offers)
			got, err := tr.Import(ImportRequest{ServiceType: "BankTeller", Constraint: "queue < 5"})
			if err != nil || len(got) != offers/2 {
				t.Fatalf("import = %d offers, %v; want %d", len(got), err, offers/2)
			}
			for _, o := range got {
				if queue(o) >= 5 {
					t.Errorf("offer %d with queue %d matched", o.Ref.ID.Nonce, queue(o))
				}
			}
		})
	}
	t.Run("offers=100/complex", func(t *testing.T) {
		tr := New("T", repo)
		populate(t, tr, 100)
		want := 0
		for i := 0; i < 100; i++ {
			q, city := i%10, cities[i%3]
			if (q < 5 && city == "brisbane") || (q < 2 && city != "perth") {
				want++
			}
		}
		got, err := tr.Import(ImportRequest{
			ServiceType: "BankTeller",
			Constraint:  "(queue < 5 and city == 'brisbane') or (queue < 2 and not (city == 'perth'))",
			Preference:  Preference{Kind: PrefMin, Expr: "queue * 2 + 1"},
		})
		if err != nil || len(got) != want {
			t.Fatalf("import = %d offers, %v; want %d", len(got), err, want)
		}
		for i := 1; i < len(got); i++ {
			if queue(got[i]) < queue(got[i-1]) {
				t.Fatalf("offer %d (queue %d) ranked after queue %d", i, queue(got[i]), queue(got[i-1]))
			}
		}
	})
	// A chain F0 → F1 → F2 → F3 with every offer three links from F0.
	chain := make([]*ShardedTrader, 4)
	for i := range chain {
		chain[i], _ = frontEnd(t, repo, fmt.Sprintf("F%d", i), 1)
		if i > 0 {
			chain[i-1].Link("next", chain[i])
		}
	}
	populate(t, chain[3], 10)
	for hops := 0; hops <= 3; hops++ {
		t.Run(fmt.Sprintf("federated/hops=%d", hops), func(t *testing.T) {
			want := 0
			if hops == 3 {
				want = 10
			}
			got, err := chain[0].Import(ImportRequest{ServiceType: "BankTeller", MaxHops: hops})
			if err != nil || len(got) != want {
				t.Errorf("import = %d offers, %v; want %d", len(got), err, want)
			}
		})
	}
}

func TestFederationCycleAndDiamond(t *testing.T) {
	repo := repoWithBank(t)
	a, _ := frontEnd(t, repo, "A", 1)
	b, _ := frontEnd(t, repo, "B", 1)
	c, _ := frontEnd(t, repo, "C", 1)
	d, _ := frontEnd(t, repo, "D", 1)
	// Diamond with a cycle: A->B, A->C, B->D, C->D, D->A.
	a.Link("b", b)
	a.Link("c", c)
	b.Link("d", d)
	c.Link("d", d)
	d.Link("a", a)
	if _, err := d.Export("BankTeller", refOf("BankTeller", 9), values.Null()); err != nil {
		t.Fatal(err)
	}
	// The offer is reachable via two paths but must appear once.
	offers, err := a.Import(ImportRequest{ServiceType: "BankTeller", MaxHops: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 {
		t.Errorf("diamond dedup: %d offers, want 1", len(offers))
	}
}

func TestFederationPartnerFailureTolerated(t *testing.T) {
	a, _ := frontEnd(t, repoWithBank(t), "A", 1)
	a.Link("dead", importerFunc(func(ImportRequest) ([]Offer, error) {
		return nil, errors.New("partner down")
	}))
	if _, err := a.Export("BankTeller", refOf("BankTeller", 1), values.Null()); err != nil {
		t.Fatal(err)
	}
	// The local offer still answers, flagged degraded with the failed
	// link counted. Each import consults two legs: A's one shard and the
	// link.
	res, err := a.ImportEx(ImportRequest{ServiceType: "BankTeller", MaxHops: 1})
	if err != nil || len(res.Offers) != 1 {
		t.Fatalf("import with dead partner = %v, %v", nonces(res.Offers), err)
	}
	if !res.Degraded || res.LinksFailed != 1 || res.LinksQueried != 2 {
		t.Errorf("metadata = %+v, want degraded with 1 failed link", res)
	}
	if st := a.ShardStats(); st.LinksFailed != 1 || st.LinksSkipped != 0 {
		t.Errorf("stats = %+v, want LinksFailed=1", st)
	}
}

// TestFederationOpenCircuitSkipped: a link that answers with an open
// circuit is counted skipped, not failed, and still marks the view partial.
func TestFederationOpenCircuitSkipped(t *testing.T) {
	a, _ := frontEnd(t, repoWithBank(t), "A", 1)
	a.Link("open", importerFunc(func(ImportRequest) ([]Offer, error) {
		return nil, fmt.Errorf("%w: partner", policy.ErrCircuitOpen)
	}))
	if _, err := a.Export("BankTeller", refOf("BankTeller", 1), values.Null()); err != nil {
		t.Fatal(err)
	}
	res, err := a.ImportEx(ImportRequest{ServiceType: "BankTeller", MaxHops: 1})
	if err != nil || len(res.Offers) != 1 {
		t.Fatalf("import with open circuit = %v, %v", nonces(res.Offers), err)
	}
	if !res.Degraded || res.LinksSkipped != 1 || res.LinksFailed != 0 || res.LinksQueried != 2 {
		t.Errorf("metadata = %+v, want degraded with 1 skipped link", res)
	}
	if st := a.ShardStats(); st.LinksSkipped != 1 || st.LinksFailed != 0 {
		t.Errorf("stats = %+v, want LinksSkipped=1", st)
	}
}

type importerFunc func(ImportRequest) ([]Offer, error)

func (f importerFunc) Import(req ImportRequest) ([]Offer, error) { return f(req) }
