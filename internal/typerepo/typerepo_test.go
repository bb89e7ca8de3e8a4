package typerepo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/values"
)

func teller() *types.Interface {
	return types.OpInterface("BankTeller",
		types.Op("Deposit",
			types.Params(types.P("a", values.TString()), types.P("d", values.TInt())),
			types.Term("OK", types.P("new_balance", values.TInt())),
			types.Term("Error", types.P("reason", values.TString())),
		),
		types.Op("Withdraw",
			types.Params(types.P("a", values.TString()), types.P("d", values.TInt())),
			types.Term("OK", types.P("new_balance", values.TInt())),
			types.Term("NotToday", types.P("today", values.TInt()), types.P("daily_limit", values.TInt())),
			types.Term("Error", types.P("reason", values.TString())),
		),
	)
}

func manager() *types.Interface {
	return types.Extend("BankManager", teller(),
		types.Op("CreateAccount",
			types.Params(types.P("c", values.TString())),
			types.Term("OK", types.P("a", values.TString())),
			types.Term("Error", types.P("reason", values.TString())),
		),
	)
}

func loans() *types.Interface {
	return types.Extend("LoansOfficer", teller(),
		types.Op("ApproveLoan",
			types.Params(types.P("c", values.TString()), types.P("amount", values.TInt())),
			types.Term("OK"),
			types.Term("Error", types.P("reason", values.TString())),
		),
	)
}

func bankRepo(t *testing.T) Repository {
	t.Helper()
	r := New()
	for _, it := range []*types.Interface{teller(), manager(), loans()} {
		if err := r.RegisterInterface(it); err != nil {
			t.Fatalf("RegisterInterface(%s): %v", it.Name, err)
		}
	}
	return r
}

func TestRegisterAndLookup(t *testing.T) {
	r := bankRepo(t)
	it, err := r.LookupInterface("BankTeller")
	if err != nil || it.Name != "BankTeller" {
		t.Fatalf("LookupInterface = %v, %v", it, err)
	}
	if _, err := r.LookupInterface("Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lookup = %v", err)
	}
	names := r.Interfaces()
	want := []string{"BankManager", "BankTeller", "LoansOfficer"}
	if len(names) != len(want) {
		t.Fatalf("Interfaces = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Interfaces[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestRegisterIdempotentAndConflict(t *testing.T) {
	r := bankRepo(t)
	if err := r.RegisterInterface(teller()); err != nil {
		t.Errorf("idempotent re-register: %v", err)
	}
	different := types.OpInterface("BankTeller", types.Announce("Nop"))
	if err := r.RegisterInterface(different); !errors.Is(err, ErrConflict) {
		t.Errorf("conflicting register = %v", err)
	}
	if err := r.RegisterInterface(nil); !errors.Is(err, ErrBadType) {
		t.Errorf("nil register = %v", err)
	}
	invalid := types.OpInterface("Bad", types.Announce("x"), types.Announce("x"))
	if err := r.RegisterInterface(invalid); !errors.Is(err, ErrBadType) {
		t.Errorf("invalid register = %v", err)
	}
}

func TestIsSubtype(t *testing.T) {
	r := bankRepo(t)
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"BankManager", "BankTeller", true},
		{"LoansOfficer", "BankTeller", true},
		{"BankTeller", "BankManager", false},
		{"LoansOfficer", "BankManager", false},
		{"BankManager", "LoansOfficer", false},
		{"BankTeller", "BankTeller", true},
	}
	for _, c := range cases {
		got, err := r.IsSubtype(c.sub, c.super)
		if err != nil {
			t.Fatalf("IsSubtype(%s, %s): %v", c.sub, c.super, err)
		}
		if got != c.want {
			t.Errorf("IsSubtype(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
		// Second call exercises the memo.
		got2, err := r.IsSubtype(c.sub, c.super)
		if err != nil || got2 != got {
			t.Errorf("memoised IsSubtype(%s, %s) = %v, %v", c.sub, c.super, got2, err)
		}
	}
	if _, err := r.IsSubtype("Ghost", "BankTeller"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown sub = %v", err)
	}
	if _, err := r.IsSubtype("BankTeller", "Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown super = %v", err)
	}
	if _, err := r.IsSubtype("Ghost", "Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown reflexive = %v", err)
	}
}

// synthetic returns an operational interface of ops operations, each with
// three integer parameters and an OK and an Error termination.
func synthetic(name string, ops int) *types.Interface {
	operations := make([]types.Operation, ops)
	for i := range operations {
		operations[i] = types.Op(fmt.Sprintf("op%d", i),
			types.Params(types.P("p0", values.TInt()), types.P("p1", values.TInt()), types.P("p2", values.TInt())),
			types.Term("OK", types.P("r", values.TInt())),
			types.Term("Error", types.P("reason", values.TString())),
		)
	}
	return types.OpInterface(name, operations...)
}

// TestExtensionIsSubtypeAtEverySize: an interface extended by one
// announcement substitutes for it, structurally and through the
// repository's memo, and not the other way round, however many operations
// the two share.
func TestExtensionIsSubtypeAtEverySize(t *testing.T) {
	for _, ops := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("structural/ops=%d", ops), func(t *testing.T) {
			super := synthetic("Super", ops)
			sub := types.Extend("Sub", super, types.Announce("extra"))
			if err := types.Subtype(sub, super); err != nil {
				t.Errorf("extension is not a subtype: %v", err)
			}
			if err := types.Subtype(super, sub); !errors.Is(err, types.ErrNotSubtype) {
				t.Errorf("supertype substitutes for its extension: %v", err)
			}
		})
	}
	t.Run("repository-memoised/ops=16", func(t *testing.T) {
		r := New()
		super := synthetic("Super", 16)
		for _, it := range []*types.Interface{super, types.Extend("Sub", super, types.Announce("extra"))} {
			if err := r.RegisterInterface(it); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // the first answer computes, the rest are remembered
			if ok, err := r.IsSubtype("Sub", "Super"); err != nil || !ok {
				t.Errorf("IsSubtype(Sub, Super) #%d = %v, %v", i, ok, err)
			}
			if ok, err := r.IsSubtype("Super", "Sub"); err != nil || ok {
				t.Errorf("IsSubtype(Super, Sub) #%d = %v, %v", i, ok, err)
			}
		}
	})
}

func TestHierarchyQueries(t *testing.T) {
	r := bankRepo(t)
	subs, err := r.Subtypes("BankTeller")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0] != "BankManager" || subs[1] != "LoansOfficer" {
		t.Errorf("Subtypes(BankTeller) = %v", subs)
	}
	supers, err := r.Supertypes("BankManager")
	if err != nil {
		t.Fatal(err)
	}
	if len(supers) != 1 || supers[0] != "BankTeller" {
		t.Errorf("Supertypes(BankManager) = %v", supers)
	}
	if _, err := r.Subtypes("Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Subtypes(Ghost) = %v", err)
	}
	if _, err := r.Supertypes("Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Supertypes(Ghost) = %v", err)
	}
}

func TestDeclareSubtype(t *testing.T) {
	r := bankRepo(t)
	if err := r.DeclareSubtype("BankManager", "BankTeller"); err != nil {
		t.Fatalf("DeclareSubtype: %v", err)
	}
	got := r.DeclaredSupertypes("BankManager")
	if len(got) != 1 || got[0] != "BankTeller" {
		t.Errorf("DeclaredSupertypes = %v", got)
	}
	// An unsound declaration is rejected.
	if err := r.DeclareSubtype("BankTeller", "BankManager"); !errors.Is(err, ErrBadDecl) {
		t.Errorf("unsound declaration = %v", err)
	}
	if err := r.DeclareSubtype("Ghost", "BankTeller"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown sub declaration = %v", err)
	}
	if err := r.DeclareSubtype("BankTeller", "Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown super declaration = %v", err)
	}
	if got := r.DeclaredSupertypes("BankTeller"); len(got) != 0 {
		t.Errorf("BankTeller declared supers = %v", got)
	}
}

func TestDataTypes(t *testing.T) {
	r := New()
	dollars := values.TInt()
	if err := r.RegisterData("Dollars", dollars); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterData("Dollars", values.TInt()); err != nil {
		t.Errorf("idempotent data register: %v", err)
	}
	if err := r.RegisterData("Dollars", values.TFloat()); !errors.Is(err, ErrConflict) {
		t.Errorf("conflicting data register = %v", err)
	}
	if err := r.RegisterData("", values.TInt()); !errors.Is(err, ErrBadName) {
		t.Errorf("empty name = %v", err)
	}
	if err := r.RegisterData("X", nil); !errors.Is(err, ErrBadType) {
		t.Errorf("nil data type = %v", err)
	}
	got, err := r.LookupData("Dollars")
	if err != nil || !got.Equal(dollars) {
		t.Errorf("LookupData = %v, %v", got, err)
	}
	if _, err := r.LookupData("Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing data = %v", err)
	}
}

func TestRelationships(t *testing.T) {
	r := bankRepo(t)
	if err := r.RegisterData("Dollars", values.TInt()); err != nil {
		t.Fatal(err)
	}
	if err := r.Relate("uses", "BankTeller", "Dollars"); err != nil {
		t.Fatalf("Relate: %v", err)
	}
	if err := r.Relate("uses", "BankTeller", "BankManager"); err != nil {
		t.Fatalf("Relate: %v", err)
	}
	got := r.Related("uses", "BankTeller")
	if len(got) != 2 || got[0] != "BankManager" || got[1] != "Dollars" {
		t.Errorf("Related = %v", got)
	}
	if got := r.Related("uses", "Dollars"); len(got) != 0 {
		t.Errorf("Related(Dollars) = %v", got)
	}
	if got := r.Related("ghost-rel", "BankTeller"); len(got) != 0 {
		t.Errorf("Related(ghost-rel) = %v", got)
	}
	if err := r.Relate("uses", "Ghost", "Dollars"); !errors.Is(err, ErrBadRelate) {
		t.Errorf("unknown from = %v", err)
	}
	if err := r.Relate("uses", "Dollars", "Ghost"); !errors.Is(err, ErrBadRelate) {
		t.Errorf("unknown to = %v", err)
	}
}

func TestCacheInvalidatedOnRegister(t *testing.T) {
	r := New()
	if err := r.RegisterInterface(teller()); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterInterface(manager()); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.IsSubtype("BankManager", "BankTeller"); !ok {
		t.Fatal("manager should be subtype")
	}
	// Register a new type: prior answers must remain correct (the memo is
	// reset, not corrupted).
	if err := r.RegisterInterface(loans()); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.IsSubtype("BankManager", "BankTeller"); !ok {
		t.Error("manager should still be subtype after new registration")
	}
	if ok, _ := r.IsSubtype("LoansOfficer", "BankTeller"); !ok {
		t.Error("loans officer should be subtype")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := bankRepo(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if ok, err := r.IsSubtype("BankManager", "BankTeller"); err != nil || !ok {
					t.Errorf("IsSubtype: %v %v", ok, err)
					return
				}
				extra := types.OpInterface(fmt.Sprintf("Extra-%d-%d", i, j), types.Announce("Nop"))
				if err := r.RegisterInterface(extra); err != nil {
					t.Errorf("RegisterInterface: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestServantArity: the servant is registered untyped or joined to a
// group in process, so no stub checks argument counts in front of it: a
// short or long call to any operation must come back as the Error
// termination, not a panic.
func TestServantArity(t *testing.T) {
	s := &Servant{R: New()}
	// The interface type's operations are the Repository methods, one for
	// one, each taking the method's arguments.
	it := InterfaceType()
	repo := reflect.TypeOf((*Repository)(nil)).Elem()
	for i := 0; i < repo.NumMethod(); i++ {
		m := repo.Method(i)
		if op, ok := it.Operation(m.Name); !ok || len(op.Params) != m.Type.NumIn() {
			t.Errorf("operation %s: %d parameters, declared %v; Repository.%s takes %d arguments", m.Name, len(op.Params), ok, m.Name, m.Type.NumIn())
		}
	}
	if len(it.Operations) != repo.NumMethod() {
		t.Errorf("the interface type declares %d operations, Repository has %d methods", len(it.Operations), repo.NumMethod())
	}
	for _, op := range it.Operations {
		n := len(op.Params)
		calls := [][]values.Value{make([]values.Value, n+1)}
		if n > 0 {
			calls = append(calls, nil, make([]values.Value, n-1))
		}
		for _, args := range calls {
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
