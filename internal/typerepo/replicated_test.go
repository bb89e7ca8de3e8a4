package typerepo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/types"
	"repro/internal/values"
)

// variant mints an interface that extends teller() with one unique
// operation, so every variant is structurally a subtype of BankTeller
// and no two variants are mutually substitutable.
func variant(i int) *types.Interface {
	return types.Extend(fmt.Sprintf("Teller_%d", i), teller(),
		types.Op(fmt.Sprintf("Audit_%d", i),
			types.Params(types.P("a", values.TString())),
			types.Term("OK"),
			types.Term("Error", types.P("reason", values.TString())),
		),
	)
}

func TestReplicatedServesReads(t *testing.T) {
	auth := New()
	rep := NewReplicated(auth, 3)
	for _, it := range []*types.Interface{teller(), manager(), loans()} {
		if err := rep.RegisterInterface(it); err != nil {
			t.Fatalf("RegisterInterface(%s): %v", it.Name, err)
		}
	}
	ok, err := rep.IsSubtype("BankManager", "BankTeller")
	if err != nil || !ok {
		t.Fatalf("IsSubtype(BankManager, BankTeller) = %v, %v; want true", ok, err)
	}
	if _, err := rep.LookupInterface("LoansOfficer"); err != nil {
		t.Fatalf("LookupInterface: %v", err)
	}
	if got := rep.Interfaces(); len(got) != 3 {
		t.Fatalf("Interfaces() = %v, want 3 names", got)
	}
	supers, err := rep.Supertypes("BankManager")
	if err != nil || len(supers) != 1 || supers[0] != "BankTeller" {
		t.Fatalf("Supertypes(BankManager) = %v, %v", supers, err)
	}
	st := rep.Stats()
	if st.Reads == 0 || st.Resyncs == 0 {
		t.Fatalf("stats show no replica traffic: %+v", st)
	}
}

func TestReplicatedReadYourWrites(t *testing.T) {
	auth := New()
	rep := NewReplicated(auth, 2)
	if err := rep.RegisterInterface(teller()); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Interleave writes and reads: after each write returns, every replica
	// must serve the new fact (the gen fence forces a resync).
	for i := 0; i < 8; i++ {
		it := variant(i)
		if err := rep.RegisterInterface(it); err != nil {
			t.Fatalf("register %s: %v", it.Name, err)
		}
		// One read per replica: both must see the registration.
		for r := 0; r < 2; r++ {
			ok, err := rep.IsSubtype(it.Name, "BankTeller")
			if err != nil || !ok {
				t.Fatalf("after registering %s: IsSubtype = %v, %v; want true", it.Name, ok, err)
			}
		}
		if err := rep.DeclareSubtype(it.Name, "BankTeller"); err != nil {
			t.Fatalf("declare %s: %v", it.Name, err)
		}
		for r := 0; r < 2; r++ {
			if got := rep.DeclaredSupertypes(it.Name); len(got) != 1 || got[0] != "BankTeller" {
				t.Fatalf("after declaring %s <= BankTeller: DeclaredSupertypes = %v", it.Name, got)
			}
		}
	}
}

// TestReplicatedGenFenceRace is the replication mirror of the trader's
// closure-invalidation test: concurrent registrations and declared-edge
// writes race replicated IsSubtype/DeclaredSupertypes reads, and no read
// may serve a stale memo across a gen bump — once a write has returned,
// every subsequent read observes it. Run under -race this also proves
// the replica swap itself is data-race free.
func TestReplicatedGenFenceRace(t *testing.T) {
	auth := New()
	rep := NewReplicated(auth, 4)
	if err := rep.RegisterInterface(teller()); err != nil {
		t.Fatalf("register: %v", err)
	}

	const writes = 120
	var hi atomic.Int64 // index of the newest fully-written variant
	hi.Store(-1)
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writes; i++ {
			it := variant(i)
			if err := rep.RegisterInterface(it); err != nil {
				t.Errorf("register %s: %v", it.Name, err)
				return
			}
			if err := rep.DeclareSubtype(it.Name, "BankTeller"); err != nil {
				t.Errorf("declare %s: %v", it.Name, err)
				return
			}
			// Publish i only after both writes returned: readers that
			// observe hi >= i must be served both facts.
			hi.Store(int64(i))
		}
	}()

	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				k := hi.Load()
				if k < 0 {
					continue
				}
				name := fmt.Sprintf("Teller_%d", k)
				ok, err := rep.IsSubtype(name, "BankTeller")
				if err != nil || !ok {
					t.Errorf("stale read: IsSubtype(%s, BankTeller) = %v, %v after write %d returned", name, ok, err, k)
					return
				}
				if got := rep.DeclaredSupertypes(name); len(got) != 1 {
					t.Errorf("stale read: DeclaredSupertypes(%s) = %v after declare returned", name, got)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Steady state: every variant visible, replicas fully caught up.
	for i := 0; i < writes; i++ {
		name := fmt.Sprintf("Teller_%d", i)
		ok, err := rep.IsSubtype(name, "BankTeller")
		if err != nil || !ok {
			t.Fatalf("final read: IsSubtype(%s, BankTeller) = %v, %v", name, ok, err)
		}
	}
	if g, a := rep.Gen(), auth.Gen(); g != a {
		t.Fatalf("front-end gen %d != authority gen %d", g, a)
	}
}

func TestReplicatedDelegatesColdPaths(t *testing.T) {
	auth := New()
	rep := NewReplicated(auth, 2)
	if err := rep.RegisterData("Money", values.TInt()); err != nil {
		t.Fatalf("RegisterData: %v", err)
	}
	if _, err := rep.LookupData("Money"); err != nil {
		t.Fatalf("LookupData: %v", err)
	}
	if err := rep.RegisterInterface(teller()); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := rep.Relate("describes", "Money", "BankTeller"); err != nil {
		t.Fatalf("Relate: %v", err)
	}
	if got := rep.Related("describes", "Money"); len(got) != 1 || got[0] != "BankTeller" {
		t.Fatalf("Related = %v", got)
	}
}

// TestReplicatedSubtypesAndAuthority: the front-end answers the downward
// query from a replica with the authority's answer, and hands back the
// authority it writes through.
func TestReplicatedSubtypesAndAuthority(t *testing.T) {
	auth := New()
	rep := NewReplicated(auth, 2)
	if rep.Authority() != Repository(auth) {
		t.Fatal("Authority() is not the wrapped repository")
	}
	for _, it := range []*types.Interface{teller(), manager(), loans()} {
		if err := rep.RegisterInterface(it); err != nil {
			t.Fatalf("RegisterInterface(%s): %v", it.Name, err)
		}
	}
	want, err := auth.Subtypes("BankTeller")
	if err != nil || len(want) == 0 {
		t.Fatalf("authority Subtypes(BankTeller) = %v, %v", want, err)
	}
	got, err := rep.Subtypes("BankTeller")
	if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Subtypes(BankTeller) = %v, %v; want %v", got, err, want)
	}
	if _, err := rep.Subtypes("Nope"); err == nil {
		t.Fatal("Subtypes of an unknown type succeeded")
	}
}
