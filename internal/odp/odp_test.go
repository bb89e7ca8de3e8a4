package odp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bank"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/technology"
	"repro/internal/trader"
	"repro/internal/transactions"
	"repro/internal/values"
)

func newBankSystem(t *testing.T) (*System, *Deployment) {
	t.Helper()
	s := NewSystem(1)
	t.Cleanup(func() { s.Close() })
	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	coord := transactions.NewCoordinator()
	store := transactions.NewStore("branch", nil)
	bank.RegisterBehavior(node.Behaviors(), coord, store)
	dep, err := s.Deploy(node, bank.Template("branch-cbd"), values.Record(
		values.F("city", values.Str("brisbane")),
		values.F("queue", values.Int(2)),
	))
	if err != nil {
		t.Fatal(err)
	}
	return s, dep
}

func TestSystemLifecycle(t *testing.T) {
	s := NewSystem(1)
	defer s.Close()
	if _, err := s.CreateNode("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateNode("alpha"); !errors.Is(err, ErrNodeExists) {
		t.Errorf("dup node = %v", err)
	}
	if n, err := s.Node("alpha"); err != nil || n.ID() != "alpha" {
		t.Errorf("Node = %v, %v", n, err)
	}
	if _, err := s.Node("ghost"); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("ghost node = %v", err)
	}
}

func TestDeployRegistersEverything(t *testing.T) {
	s, dep := newBankSystem(t)
	// Interface types are in the repository.
	for _, name := range []string{"BankTeller", "BankManager", "LoansOfficer"} {
		if _, err := s.Types.LookupInterface(name); err != nil {
			t.Errorf("type %s not registered: %v", name, err)
		}
		if _, ok := dep.Ref(name); !ok {
			t.Errorf("no ref for %s", name)
		}
		if dep.Offers[name] == "" {
			t.Errorf("no offer for %s", name)
		}
	}
	// Locations are in the relocator.
	ref, _ := dep.Ref("BankTeller")
	if _, err := s.Relocator.Lookup(ref.ID); err != nil {
		t.Errorf("teller location missing: %v", err)
	}
	// Subtype substitutability holds in the repository.
	if ok, _ := s.Types.IsSubtype("BankManager", "BankTeller"); !ok {
		t.Error("manager should substitute for teller")
	}
	if _, ok := dep.Ref("Ghost"); ok {
		t.Error("ghost ref should not exist")
	}
}

func TestTradeThenBindThenInvoke(t *testing.T) {
	s, _ := newBankSystem(t)
	contract := core.Contract{
		Require: core.TransparencySet(core.Access | core.Location | core.Relocation | core.Failure),
	}
	// The canonical client path: import a manager (by constraint on the
	// branch properties), bind, create an account, use it via a teller.
	mgr, err := s.ImportAndBind("client", "BankManager", "city == 'brisbane'", contract)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ctx := context.Background()
	term, res, err := mgr.Invoke(ctx, "CreateAccount", []values.Value{values.Str("alice")})
	if err != nil || term != "OK" {
		t.Fatalf("CreateAccount = %q, %v, %v", term, res, err)
	}
	acct, _ := res[0].AsString()

	tel, err := s.ImportAndBind("client", "BankTeller", "", contract)
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if term, _, err := tel.Invoke(ctx, "Deposit",
		[]values.Value{values.Str("alice"), values.Str(acct), values.Int(100)}); err != nil || term != "OK" {
		t.Fatalf("Deposit = %q, %v", term, err)
	}
	// No offers for an unknown constraint.
	if _, err := s.ImportAndBind("client", "BankManager", "city == 'perth'", contract); !errors.Is(err, ErrNoOffers) {
		t.Errorf("no offers = %v", err)
	}
	// Unknown service type surfaces the trader error.
	if _, err := s.ImportAndBind("client", "Ghost", "", contract); !errors.Is(err, trader.ErrTypeUnknown) {
		t.Errorf("unknown type = %v", err)
	}
}

func TestDeployErrors(t *testing.T) {
	s := NewSystem(1)
	defer s.Close()
	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	// Invalid template.
	if _, err := s.Deploy(node, core.ObjectTemplate{}, values.Null()); err == nil {
		t.Error("invalid template should fail")
	}
	// Unknown behaviour.
	tmpl := bank.Template("branch")
	if _, err := s.Deploy(node, tmpl, values.Null()); err == nil {
		t.Error("unknown behaviour should fail")
	}
}

func TestDeployPersistenceContractPropagates(t *testing.T) {
	s := NewSystem(1)
	defer s.Close()
	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	coord := transactions.NewCoordinator()
	bank.RegisterBehavior(node.Behaviors(), coord, transactions.NewStore("b", nil))
	tmpl := bank.Template("branch")
	tmpl.Interfaces[0].Contract.Require = tmpl.Interfaces[0].Contract.Require.With(core.Persistence)
	dep, err := s.Deploy(node, tmpl, values.Null())
	if err != nil {
		t.Fatal(err)
	}
	// Deactivate; the next call must transparently reactivate.
	if err := dep.Cluster.Deactivate(); err != nil {
		t.Fatal(err)
	}
	ref, _ := dep.Ref("BankManager")
	b, err := s.Bind("client", ref, core.Contract{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if term, _, err := b.Invoke(context.Background(), "CreateAccount",
		[]values.Value{values.Str("alice")}); err != nil || term != "OK" {
		t.Fatalf("call on deactivated cluster = %q, %v", term, err)
	}
}

func TestBusSeesDeployments(t *testing.T) {
	s := NewSystem(1)
	defer s.Close()
	var seen []string
	s.Bus.Subscribe("odp.deployed", nil, func(ev coordination.Event) {
		name, _ := ev.Payload.FieldByName("template")
		str, _ := name.AsString()
		seen = append(seen, str)
	})
	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	coord := transactions.NewCoordinator()
	bank.RegisterBehavior(node.Behaviors(), coord, transactions.NewStore("b", nil))
	if _, err := s.Deploy(node, bank.Template("branch-x"), values.Null()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "branch-x" {
		t.Errorf("deployment events = %v", seen)
	}
}

// ---------------------------------------------------------------------------
// Figure 1: cross-viewpoint consistency of the bank

func bankSpec(t *testing.T) Spec {
	t.Helper()
	community, err := bank.NewCommunity("branch-cbd")
	if err != nil {
		t.Fatal(err)
	}
	model, err := bank.NewModel()
	if err != nil {
		t.Fatal(err)
	}
	tech := technology.NewSpecification("sim-deployment")
	if err := tech.Choose("transport", values.Record(values.F("kind", values.Str("sim")))); err != nil {
		t.Fatal(err)
	}
	if err := tech.Require(technology.Requirement{
		Name: "transport-chosen", Condition: "exist transport.kind",
	}); err != nil {
		t.Fatal(err)
	}
	return Spec{
		Community:  community,
		Model:      model,
		Templates:  []core.ObjectTemplate{bank.Template("branch-cbd")},
		Technology: tech,
		Links: []Correspondence{
			{Action: "Deposit", Interface: "BankTeller", Operation: "Deposit", Schema: "Deposit"},
			{Action: "Withdraw", Interface: "BankTeller", Operation: "Withdraw", Schema: "Withdraw"},
			{Action: "Balance", Interface: "BankTeller", Operation: "Balance"},
			{Action: "CreateAccount", Interface: "BankManager", Operation: "CreateAccount"},
			{Action: "ApproveLoan", Interface: "LoansOfficer", Operation: "ApproveLoan"},
			{Interface: "BankManager", Operation: "ResetDay", Schema: "ResetDay"},
			{Interface: "BankManager", Operation: "CloseAccount", Schema: "CloseAccount"},
		},
	}
}

func TestBankViewpointsConsistent(t *testing.T) {
	spec := bankSpec(t)
	findings := CheckConsistency(spec, nil)
	// The only expected finding: SetInterestRate is governed (performative
	// + policies) but deliberately not a computational operation — the
	// tutorial treats it as an enterprise-level act.
	for _, f := range Errors(findings) {
		t.Errorf("unexpected error: %+v", f)
	}
	warnings := 0
	for _, f := range findings {
		if f.Severity == Warning {
			warnings++
		}
	}
	if warnings != 1 {
		t.Errorf("findings = %+v (want exactly the SetInterestRate warning)", findings)
	}
}

func TestConsistencyCatchesBreaks(t *testing.T) {
	base := bankSpec(t)

	t.Run("unknown-interface", func(t *testing.T) {
		spec := base
		spec.Links = append([]Correspondence{}, base.Links...)
		spec.Links = append(spec.Links, Correspondence{Interface: "Ghost", Operation: "X"})
		if len(Errors(CheckConsistency(spec, nil))) == 0 {
			t.Error("unknown interface not caught")
		}
	})
	t.Run("unknown-operation", func(t *testing.T) {
		spec := base
		spec.Links = []Correspondence{{Interface: "BankTeller", Operation: "Ghost"}}
		if len(Errors(CheckConsistency(spec, nil))) == 0 {
			t.Error("unknown operation not caught")
		}
	})
	t.Run("ungoverned-action", func(t *testing.T) {
		spec := base
		spec.Links = []Correspondence{{Action: "Smuggle", Interface: "BankTeller", Operation: "Deposit"}}
		if len(Errors(CheckConsistency(spec, nil))) == 0 {
			t.Error("ungoverned action not caught")
		}
	})
	t.Run("unknown-schema", func(t *testing.T) {
		spec := base
		spec.Links = []Correspondence{{Interface: "BankTeller", Operation: "Deposit", Schema: "Ghost"}}
		if len(Errors(CheckConsistency(spec, nil))) == 0 {
			t.Error("unknown schema not caught")
		}
	})
	t.Run("invalid-template", func(t *testing.T) {
		spec := base
		spec.Templates = []core.ObjectTemplate{{Name: "broken"}}
		if len(Errors(CheckConsistency(spec, nil))) == 0 {
			t.Error("invalid template not caught")
		}
	})
	t.Run("missing-behaviour", func(t *testing.T) {
		s := NewSystem(1)
		defer s.Close()
		node, err := s.CreateNode("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if len(Errors(CheckConsistency(base, node.Behaviors()))) == 0 {
			t.Error("missing behaviour not caught")
		}
	})
	t.Run("non-conforming-technology", func(t *testing.T) {
		spec := base
		tech := technology.NewSpecification("broken")
		if err := tech.Require(technology.Requirement{Name: "impossible", Condition: "false"}); err != nil {
			t.Fatal(err)
		}
		spec.Technology = tech
		if len(Errors(CheckConsistency(spec, nil))) == 0 {
			t.Error("non-conforming technology not caught")
		}
	})
	t.Run("no-community-warning", func(t *testing.T) {
		spec := base
		spec.Community = nil
		findings := CheckConsistency(spec, nil)
		hasWarn := false
		for _, f := range findings {
			if f.Severity == Warning && f.Viewpoint == "enterprise" {
				hasWarn = true
			}
		}
		if !hasWarn {
			t.Error("missing community should warn")
		}
	})
	t.Run("no-model-warning", func(t *testing.T) {
		spec := base
		spec.Model = nil
		findings := CheckConsistency(spec, nil)
		hasWarn := false
		for _, f := range findings {
			if f.Severity == Warning && f.Viewpoint == "information" {
				hasWarn = true
			}
		}
		if !hasWarn {
			t.Error("missing model should warn")
		}
	})
}

func TestSeverityString(t *testing.T) {
	if Error.String() != "error" || Warning.String() != "warning" {
		t.Error("severity strings")
	}
}
