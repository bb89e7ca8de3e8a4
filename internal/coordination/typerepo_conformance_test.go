package coordination

import (
	"errors"
	"testing"

	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

func tellerType() *types.Interface {
	return types.OpInterface("BankTeller",
		types.Op("Deposit",
			types.Params(types.P("a", values.TString()), types.P("d", values.TInt())),
			types.Term("OK", types.P("new_balance", values.TInt())),
			types.Term("Error", types.P("reason", values.TString())),
		),
	)
}

func managerType() *types.Interface {
	return types.Extend("BankManager", tellerType(),
		types.Op("CreateAccount",
			types.Params(types.P("c", values.TString())),
			types.Term("OK", types.P("a", values.TString())),
			types.Term("Error", types.P("reason", values.TString())),
		),
	)
}

// typeCarriers is the type repository's conformance table: each row
// carries a repository's calls to the two stores it is given, of which a
// registration reaches the first reach.
var typeCarriers = []struct {
	name  string
	carry func(t *testing.T, a, b typerepo.Repository) typerepo.Repository
	reach int
}{
	{"local", func(_ *testing.T, a, _ typerepo.Repository) typerepo.Repository { return a }, 1},
	{"binding", func(t *testing.T, a, _ typerepo.Repository) typerepo.Repository {
		remote := typerepo.NewRemote(loopback(t, typerepo.InterfaceType(), &typerepo.Servant{R: a}))
		t.Cleanup(func() { remote.Close() })
		return remote
	}, 1},
	{"replicagroup", func(t *testing.T, a, b typerepo.Repository) typerepo.Repository {
		return typerepo.NewRemote(replicaGroupOf(t, &typerepo.Servant{R: a}, &typerepo.Servant{R: b}))
	}, 2},
}

// overTypeCarriers runs check once per row of the table, over two fresh
// stores.
func overTypeCarriers(t *testing.T, check func(t *testing.T, repo typerepo.Repository, backing []*typerepo.Local)) {
	for _, c := range typeCarriers {
		t.Run(c.name, func(t *testing.T) {
			backing := []*typerepo.Local{typerepo.New(), typerepo.New()}
			check(t, c.carry(t, backing[0], backing[1]), backing[:c.reach])
		})
	}
}

// TestTypeErrorsKeepTheirIdentity: one failing call per sentinel, against
// a repository holding BankTeller and BankManager. On every carrier the
// error satisfies errors.Is for the sentinel and reads as the local
// store's does.
func TestTypeErrorsKeepTheirIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		is   error
		call func(r typerepo.Repository) error
	}{
		{"not found", typerepo.ErrNotFound, func(r typerepo.Repository) error { _, err := r.LookupInterface("X"); return err }},
		{"conflict", typerepo.ErrConflict, func(r typerepo.Repository) error {
			return r.RegisterInterface(types.OpInterface("BankTeller", types.Op("Different", types.Params(), types.Term("OK"))))
		}},
		{"unsound declaration", typerepo.ErrBadDecl, func(r typerepo.Repository) error { return r.DeclareSubtype("BankTeller", "BankManager") }},
		{"empty name", typerepo.ErrBadName, func(r typerepo.Repository) error { return r.RegisterData("", values.TInt()) }},
		{"invalid type", typerepo.ErrBadType, func(r typerepo.Repository) error {
			op := types.Op("Twice", types.Params(), types.Term("OK"))
			return r.RegisterInterface(types.OpInterface("Bad", op, op))
		}},
		{"unregistered endpoint", typerepo.ErrBadRelate, func(r typerepo.Repository) error { return r.Relate("audits", "BankManager", "Ghost") }},
	} {
		var local error
		for _, c := range typeCarriers {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				r := c.carry(t, typerepo.New(), typerepo.New())
				for _, it := range []*types.Interface{tellerType(), managerType()} {
					if err := r.RegisterInterface(it); err != nil {
						t.Fatal(err)
					}
				}
				err := tc.call(r)
				if c.name == "local" {
					local = err
				}
				if !errors.Is(err, tc.is) || local == nil || err.Error() != local.Error() {
					t.Errorf("error %v, want %v wrapping %v", err, local, tc.is)
				}
			})
		}
	}
}

func TestTypeGroupReplicatesRegistrations(t *testing.T) {
	overTypeCarriers(t, func(t *testing.T, repo typerepo.Repository, backing []*typerepo.Local) {
		if err := repo.RegisterInterface(tellerType()); err != nil {
			t.Fatalf("RegisterInterface: %v", err)
		}
		if err := repo.RegisterInterface(managerType()); err != nil {
			t.Fatalf("RegisterInterface: %v", err)
		}
		if err := repo.DeclareSubtype("BankManager", "BankTeller"); err != nil {
			t.Fatalf("DeclareSubtype: %v", err)
		}
		if err := repo.RegisterData("Money", values.TInt()); err != nil {
			t.Fatalf("RegisterData: %v", err)
		}
		if err := repo.Relate("audits", "BankManager", "BankTeller"); err != nil {
			t.Fatalf("Relate: %v", err)
		}
		// The writes reached every store behind the carrier identically.
		for i, m := range backing {
			ok, err := m.IsSubtype("BankManager", "BankTeller")
			if err != nil || !ok {
				t.Fatalf("store %d: IsSubtype = %v, %v", i, ok, err)
			}
			if m.Gen() != backing[0].Gen() {
				t.Fatalf("store %d gen %d != store 0 gen %d", i, m.Gen(), backing[0].Gen())
			}
		}
		// Every read resolves through the carrier.
		if it, err := repo.LookupInterface("BankManager"); err != nil || it.Name != "BankManager" || len(it.Operations) != 2 {
			t.Fatalf("LookupInterface = %v, %v", it, err)
		}
		if dt, err := repo.LookupData("Money"); err != nil || !dt.Equal(values.TInt()) {
			t.Fatalf("LookupData = %v, %v", dt, err)
		}
		ok, err := repo.IsSubtype("BankManager", "BankTeller")
		if err != nil || !ok {
			t.Fatalf("IsSubtype = %v, %v", ok, err)
		}
		if ok, err := repo.IsSubtype("BankTeller", "BankManager"); err != nil || ok {
			t.Fatalf("IsSubtype reversed = %v, %v", ok, err)
		}
		for what, got := range map[string][]string{
			"DeclaredSupertypes": repo.DeclaredSupertypes("BankManager"),
			"Related":            repo.Related("audits", "BankManager"),
		} {
			if len(got) != 1 || got[0] != "BankTeller" {
				t.Fatalf("%s = %v", what, got)
			}
		}
		if got, err := repo.Supertypes("BankManager"); err != nil || len(got) != 1 || got[0] != "BankTeller" {
			t.Fatalf("Supertypes = %v, %v", got, err)
		}
		if got, err := repo.Subtypes("BankTeller"); err != nil || len(got) != 1 || got[0] != "BankManager" {
			t.Fatalf("Subtypes = %v, %v", got, err)
		}
		if got := repo.Interfaces(); len(got) != 2 {
			t.Fatalf("Interfaces = %v", got)
		}
		if repo.Gen() == 0 || repo.Gen() != backing[0].Gen() {
			t.Fatalf("gen %d != store gen %d", repo.Gen(), backing[0].Gen())
		}
		// Sentinel conditions survive the boundary.
		if _, err := repo.LookupInterface("NoSuch"); !errors.Is(err, typerepo.ErrNotFound) {
			t.Fatalf("LookupInterface(NoSuch) = %v, want ErrNotFound", err)
		}
		if _, err := repo.Supertypes("NoSuch"); !errors.Is(err, typerepo.ErrNotFound) {
			t.Fatalf("Supertypes(NoSuch) = %v, want ErrNotFound", err)
		}
		conflicting := types.OpInterface("BankTeller",
			types.Op("Different", types.Params(), types.Term("OK")),
		)
		if err := repo.RegisterInterface(conflicting); !errors.Is(err, typerepo.ErrConflict) {
			t.Fatalf("conflicting registration = %v, want ErrConflict", err)
		}
		if err := repo.RegisterInterface(nil); !errors.Is(err, typerepo.ErrBadType) {
			t.Fatalf("nil registration = %v, want ErrBadType", err)
		}
	})
}

// A remote repository is the intended authority behind the replicated
// read front-end: writes travel the carrier (ReplicaGroup-ordered across
// the member stores when it is a group), reads come from the front-end's
// gen-fenced local replicas.
func TestTypeGroupBehindReplicatedFrontEnd(t *testing.T) {
	overTypeCarriers(t, func(t *testing.T, repo typerepo.Repository, backing []*typerepo.Local) {
		rep := typerepo.NewReplicated(repo, 2)
		if err := rep.RegisterInterface(tellerType()); err != nil {
			t.Fatalf("register: %v", err)
		}
		if err := rep.RegisterInterface(managerType()); err != nil {
			t.Fatalf("register: %v", err)
		}
		ok, err := rep.IsSubtype("BankManager", "BankTeller")
		if err != nil || !ok {
			t.Fatalf("replicated IsSubtype over the authority = %v, %v", ok, err)
		}
		for i, m := range backing {
			if got := len(m.Interfaces()); got != 2 {
				t.Fatalf("store %d holds %d interfaces, want 2", i, got)
			}
		}
	})
}
