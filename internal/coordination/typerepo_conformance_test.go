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
// builds a repository and returns with it every local store a
// registration through it must reach. The servant has no interface type
// of its own, so the binding row serves and binds it unchecked.
var typeCarriers = []struct {
	name  string
	build func(t *testing.T) (typerepo.Repository, []*typerepo.Local)
}{
	{"local", func(*testing.T) (typerepo.Repository, []*typerepo.Local) {
		r := typerepo.New()
		return r, []*typerepo.Local{r}
	}},
	{"binding", func(t *testing.T) (typerepo.Repository, []*typerepo.Local) {
		r := typerepo.New()
		remote := typerepo.NewRemote(loopback(t, nil, &typerepo.Servant{R: r}))
		t.Cleanup(func() { remote.Close() })
		return remote, []*typerepo.Local{r}
	}},
	{"replicagroup", func(t *testing.T) (typerepo.Repository, []*typerepo.Local) {
		r0, r1 := typerepo.New(), typerepo.New()
		g := replicaGroupOf(t, &typerepo.Servant{R: r0}, &typerepo.Servant{R: r1})
		return typerepo.NewRemote(g), []*typerepo.Local{r0, r1}
	}},
}

// overTypeCarriers runs check once per row of the table.
func overTypeCarriers(t *testing.T, check func(t *testing.T, repo typerepo.Repository, backing []*typerepo.Local)) {
	for _, c := range typeCarriers {
		t.Run(c.name, func(t *testing.T) {
			repo, backing := c.build(t)
			check(t, repo, backing)
		})
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
