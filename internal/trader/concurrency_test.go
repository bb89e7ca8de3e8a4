package trader

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/values"
)

// TestClosureCacheInvalidation checks the two ways the memoised subtype
// closure can go stale: a type registered in the repository after imports
// have already been answered, and a brand-new bucket appearing when an
// offer of a previously unseen service type is exported.
func TestClosureCacheInvalidation(t *testing.T) {
	repo := repoWithBank(t)
	tr := New("T1", repo)

	if _, err := tr.Export("BankTeller", refOf("BankTeller", 1), values.Null()); err != nil {
		t.Fatal(err)
	}
	offers, err := tr.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil || len(offers) != 1 {
		t.Fatalf("initial import = %v, %v", offers, err)
	}

	// A manager offer creates a new bucket whose type substitutes for
	// BankTeller; the cached closure for BankTeller must not hide it.
	if _, err := tr.Export("BankManager", refOf("BankManager", 2), values.Null()); err != nil {
		t.Fatal(err)
	}
	offers, err = tr.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil || len(offers) != 2 {
		t.Fatalf("after manager export = %v, %v", offers, err)
	}

	// Register a type that did not exist when the closure was first built,
	// export under it, and import the supertype again: the offer must appear.
	plus := types.Extend("TellerPlus", tellerT(),
		types.Op("Audit",
			types.Params(types.P("a", values.TString())),
			types.Term("OK", types.P("r", values.TInt())),
		),
	)
	if err := repo.RegisterInterface(plus); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Export("TellerPlus", refOf("TellerPlus", 3), values.Null()); err != nil {
		t.Fatal(err)
	}
	offers, err = tr.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil || len(offers) != 3 {
		t.Fatalf("after late type registration = %v, %v", offers, err)
	}
	// Export order survives the multi-bucket merge.
	for i, o := range offers {
		if want := uint64(i + 1); o.Ref.ID.Nonce != want {
			t.Errorf("offer %d nonce = %d, want %d", i, o.Ref.ID.Nonce, want)
		}
	}
	// The narrower import still sees only its own bucket.
	offers, err = tr.Import(ImportRequest{ServiceType: "TellerPlus"})
	if err != nil || len(offers) != 1 {
		t.Fatalf("TellerPlus import = %v, %v", offers, err)
	}
}

// TestConcurrentExportImportWithdraw hammers one trader from exporters,
// importers and withdrawers at once; the atomics and the bucket index must
// stay coherent under the race detector.
func TestConcurrentExportImportWithdraw(t *testing.T) {
	const (
		exporters = 4
		perWorker = 30
		importers = 4
	)
	tr := New("T1", repoWithBank(t))
	ids := make(chan string, exporters*perWorker)

	var wg sync.WaitGroup
	for w := 0; w < exporters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				st := "BankTeller"
				if j%3 == 0 {
					st = "BankManager"
				}
				id, err := tr.Export(st, refOf(st, uint64(w*perWorker+j)),
					rec(values.F("queue", values.Int(int64(j%10)))))
				if err != nil {
					t.Errorf("Export: %v", err)
					return
				}
				ids <- id
			}
		}(w)
	}
	for w := 0; w < importers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if _, err := tr.Import(ImportRequest{ServiceType: "BankTeller", Constraint: "queue < 5"}); err != nil {
					t.Errorf("Import: %v", err)
					return
				}
			}
		}()
	}
	// Withdraw half of what the exporters produce, concurrently with them.
	wg.Add(1)
	withdrawn := 0
	go func() {
		defer wg.Done()
		for i := 0; i < exporters*perWorker/2; i++ {
			if err := tr.Withdraw(<-ids); err != nil {
				t.Errorf("Withdraw: %v", err)
				return
			}
			withdrawn++
		}
	}()
	wg.Wait()

	if got, want := tr.Len(), exporters*perWorker-withdrawn; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	// The survivors must all still be importable.
	offers, err := tr.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil || len(offers) != tr.Len() {
		t.Errorf("final import = %d offers, %v; Len = %d", len(offers), err, tr.Len())
	}
}

// TestConcurrentFederationDedup arranges a diamond — the origin links to
// two middlemen which both link to one shared trader — and imports through
// it concurrently. The shared trader's offers arrive via both middlemen
// and must be deduplicated at the origin, on every one of the concurrent
// imports.
func TestConcurrentFederationDedup(t *testing.T) {
	repo := repoWithBank(t)
	origin, _ := frontEnd(t, repo, "origin", 1)
	mid1, _ := frontEnd(t, repo, "mid1", 1)
	mid2, _ := frontEnd(t, repo, "mid2", 1)
	shared, _ := frontEnd(t, repo, "shared", 1)

	nonce := uint64(0)
	exportN := func(tr Shard, n int) {
		for i := 0; i < n; i++ {
			nonce++
			if _, err := tr.Export("BankTeller", refOf("BankTeller", nonce), values.Null()); err != nil {
				t.Fatal(err)
			}
		}
	}
	exportN(origin, 1)
	exportN(mid1, 2)
	exportN(mid2, 2)
	exportN(shared, 3)

	origin.Link("m1", mid1)
	origin.Link("m2", mid2)
	mid1.Link("s", shared)
	mid2.Link("s", shared)

	const want = 1 + 2 + 2 + 3 // every offer exactly once despite the diamond
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				offers, err := origin.Import(ImportRequest{ServiceType: "BankTeller", MaxHops: 2})
				if err != nil {
					t.Errorf("Import: %v", err)
					return
				}
				if len(offers) != want {
					t.Errorf("Import = %d offers, want %d", len(offers), want)
					return
				}
				seen := map[string]bool{}
				for _, o := range offers {
					if seen[o.ID] {
						t.Errorf("offer %s duplicated", o.ID)
						return
					}
					seen[o.ID] = true
				}
			}
		}()
	}
	wg.Wait()

	if st := origin.ShardStats(); st.Federated != 6*10*2 {
		t.Errorf("origin Federated = %d, want %d", st.Federated, 6*10*2)
	}
}

// TestModifyDuringMultiLegImport: an import merges pointers to the stored
// offers and copies the ones it returns after every store's read lock is
// released, so no stored offer may ever be written: Modify is
// copy-on-write. Modifiers flip the offers of the bench-shaped four-shard
// front-end between versions whose two fields agree, while importers ask
// for root types, whose closures span every shard; each offer returned
// must hold one whole version. Under the race detector (scripts/check.sh
// runs it 20 times) a write to a stored offer is also a reported race.
func TestModifyDuringMultiLegImport(t *testing.T) {
	front := benchShaped(t, 2_000)
	v := front.part.View()
	stores := make(map[string]*Trader)
	for i, name := range v.Names() {
		stores[name] = v.Members()[i].shard.(*Trader)
	}
	// Version n keeps the offer's cost, so the ranking holds still.
	version := func(o Offer, n int64) values.Value {
		cost, _ := o.Properties.FieldByName("cost")
		return values.Record(values.F("cost", cost), values.F("a", values.Int(n)), values.F("b", values.Int(n)))
	}
	roots := []string{"SvcR0", "SvcR1", "SvcR2", "SvcR3", "SvcR4"}
	var offers []Offer
	for _, root := range roots {
		res, err := front.ImportEx(ImportRequest{ServiceType: root})
		if err != nil || res.LinksQueried < 2 {
			t.Fatalf("%s: %d legs, %v; want a multi-leg import", root, res.LinksQueried, err)
		}
		offers = append(offers, res.Offers...)
	}
	modify := func(o Offer, n int64) error {
		return stores[o.ID[:strings.IndexByte(o.ID, '/')]].Modify(o.ID, version(o, n))
	}
	for _, o := range offers {
		if err := modify(o, 0); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var modifiers, importers sync.WaitGroup
	for w := 0; w < 2; w++ {
		modifiers.Add(1)
		go func(w int) {
			defer modifiers.Done()
			for n := int64(1); ; n++ {
				for i := w; i < len(offers); i += 2 {
					select {
					case <-stop:
						return
					default:
					}
					if err := modify(offers[i], n); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	reqs := []ImportRequest{
		{Preference: Preference{Kind: PrefMin, Expr: "cost"}, MaxMatches: 10},
		{Preference: Preference{Kind: PrefFirst}},
		{Preference: Preference{Kind: PrefRandom}, MaxMatches: 5},
	}
	for w := 0; w < 2; w++ {
		importers.Add(1)
		go func(w int) {
			defer importers.Done()
			for i := 0; i < 60; i++ {
				req := reqs[i%len(reqs)]
				req.ServiceType = roots[(i+w)%len(roots)]
				got, err := front.Import(req)
				if err != nil || len(got) == 0 {
					t.Errorf("import %+v = %d offers, %v", req, len(got), err)
					return
				}
				for _, o := range got {
					a, _ := o.Properties.FieldByName("a")
					b, _ := o.Properties.FieldByName("b")
					an, aok := a.AsInt()
					bn, bok := b.AsInt()
					if !aok || !bok || an != bn {
						t.Errorf("offer %s holds a = %v, b = %v: no one version", o.ID, a, b)
						return
					}
				}
			}
		}(w)
	}
	importers.Wait()
	close(stop)
	modifiers.Wait()
}
