package enterprise

import (
	"errors"
	"testing"

	"repro/internal/values"
)

// bankCommunity builds the tutorial's Section 3 example: a bank branch
// with manager, tellers, customers and accounts, the $500/day prohibition
// and the interest-rate obligation.
func bankCommunity(t *testing.T) *Community {
	t.Helper()
	c := NewCommunity("branch-cbd", "provide banking services to a geographical area")
	for _, role := range []string{"manager", "teller", "customer"} {
		if err := c.DeclareRole(role); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range []struct {
		name string
		kind ObjectKind
	}{
		{"kerry", Active}, {"tom", Active}, {"alice", Active}, {"bob", Active},
		{"acct-alice", Passive}, {"money", Passive},
	} {
		if err := c.AddObject(obj.name, obj.kind); err != nil {
			t.Fatal(err)
		}
	}
	assign := map[string]string{"kerry": "manager", "tom": "teller", "alice": "customer", "bob": "customer"}
	for obj, role := range assign {
		if err := c.Assign(obj, role); err != nil {
			t.Fatal(err)
		}
	}
	policies := []Policy{
		// Permission: money can be deposited into an open account.
		{ID: "p-deposit", Kind: Permission, Role: "customer", Action: "Deposit", Condition: "account_open"},
		// Permission: withdrawals up to the daily limit.
		{ID: "p-withdraw", Kind: Permission, Role: "customer", Action: "Withdraw"},
		// Prohibition: customers must not withdraw more than $500 per day.
		{ID: "n-daily-limit", Kind: Prohibition, Role: "customer", Action: "Withdraw",
			Condition: "amount + withdrawn_today > 500"},
		// Obligation rule: a rate change obliges the manager to advise customers.
		{ID: "o-rate-change", Kind: ObligationRule, Role: "manager", Action: "SetInterestRate",
			Duty: "NotifyCustomers"},
		// Manager may set rates.
		{ID: "p-set-rate", Kind: Permission, Role: "manager", Action: "SetInterestRate"},
	}
	for _, p := range policies {
		if err := c.AddPolicy(p); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func params(fs ...values.Field) values.Value { return values.Record(fs...) }

func TestCommunityIdentity(t *testing.T) {
	c := bankCommunity(t)
	if c.Name() != "branch-cbd" || c.Purpose() == "" {
		t.Errorf("identity: %s / %s", c.Name(), c.Purpose())
	}
	if got := c.Members("customer"); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Errorf("customers = %v", got)
	}
	role, err := c.RoleOf("kerry")
	if err != nil || role != "manager" {
		t.Errorf("RoleOf(kerry) = %q, %v", role, err)
	}
	if _, err := c.RoleOf("ghost"); !errors.Is(err, ErrNoSuchMember) {
		t.Errorf("RoleOf(ghost) = %v", err)
	}
}

func TestDeclarationErrors(t *testing.T) {
	c := bankCommunity(t)
	if err := c.DeclareRole("manager"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup role = %v", err)
	}
	if err := c.AddObject("kerry", Active); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup object = %v", err)
	}
	if err := c.Assign("kerry", "ghost-role"); !errors.Is(err, ErrNoSuchRole) {
		t.Errorf("assign ghost role = %v", err)
	}
	if err := c.Assign("ghost", "teller"); !errors.Is(err, ErrNoSuchMember) {
		t.Errorf("assign ghost object = %v", err)
	}
	if err := c.Assign("acct-alice", "teller"); err == nil {
		t.Error("passive object must not fill a role")
	}
}

func TestPolicyValidation(t *testing.T) {
	c := bankCommunity(t)
	bad := []Policy{
		{Kind: Permission, Role: "teller", Action: "X"},                           // no id
		{ID: "x", Kind: Permission, Role: "teller"},                               // no action
		{ID: "x", Kind: PolicyKind(9), Role: "teller", Action: "X"},               // bad kind
		{ID: "x", Kind: Permission, Role: "ghost", Action: "X"},                   // unknown role
		{ID: "p-deposit", Kind: Permission, Role: "teller", Action: "X"},          // dup id
		{ID: "x", Kind: Permission, Role: "teller", Action: "X", Condition: "(("}, // bad condition
		{ID: "x", Kind: ObligationRule, Role: "teller", Action: "X"},              // no duty
		{ID: "x", Kind: Permission, Role: "teller", Action: "X", Duty: "Y"},       // permission with duty
		{ID: "x", Kind: Prohibition, Role: "teller", Action: "X", Duty: "Y"},      // prohibition with duty
	}
	for i, p := range bad {
		if err := c.AddPolicy(p); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestCheckPermissionAndProhibition(t *testing.T) {
	c := bankCommunity(t)
	// Deposit into an open account: permitted.
	v, err := c.Check("alice", "Deposit", params(values.F("account_open", values.Bool(true))))
	if err != nil || !v.Allowed || v.Policy != "p-deposit" {
		t.Errorf("deposit open = %+v, %v", v, err)
	}
	// Deposit into a closed account: the permission's condition fails.
	if _, err := c.Check("alice", "Deposit", params(values.F("account_open", values.Bool(false)))); !errors.Is(err, ErrNotPermitted) {
		t.Errorf("deposit closed = %v", err)
	}
	// The tutorial's exact arithmetic: $400 in the morning is fine...
	v, err = c.Check("alice", "Withdraw", params(
		values.F("amount", values.Int(400)), values.F("withdrawn_today", values.Int(0))))
	if err != nil || !v.Allowed {
		t.Errorf("morning withdrawal = %+v, %v", v, err)
	}
	// ...but an additional $200 in the afternoon exceeds $500/day.
	v, err = c.Check("alice", "Withdraw", params(
		values.F("amount", values.Int(200)), values.F("withdrawn_today", values.Int(400))))
	if !errors.Is(err, ErrProhibited) || v.Policy != "n-daily-limit" {
		t.Errorf("afternoon withdrawal = %+v, %v", v, err)
	}
	// Tellers have no withdraw permission at all: default deny.
	if _, err := c.Check("tom", "Withdraw", params(
		values.F("amount", values.Int(1)), values.F("withdrawn_today", values.Int(0)))); !errors.Is(err, ErrNotPermitted) {
		t.Errorf("teller withdraw = %v", err)
	}
	// Unknown actor.
	if _, err := c.Check("ghost", "Withdraw", values.Record()); !errors.Is(err, ErrNoSuchMember) {
		t.Errorf("ghost check = %v", err)
	}
	// Six checks (including the unknown actor, which is counted and
	// denied), four denials: closed deposit, afternoon limit, teller, ghost.
	checks, denials := c.Stats()
	if checks != 6 || denials != 4 {
		t.Errorf("stats = %d checks, %d denials", checks, denials)
	}
}

func TestObligationRuleFires(t *testing.T) {
	c := bankCommunity(t)
	// The manager changes the interest rate (an action governed by an
	// obligation rule): the duty to notify customers is created.
	v, err := c.Check("kerry", "SetInterestRate", params(values.F("rate", values.Float(4.5))))
	if err != nil || !v.Allowed {
		t.Fatalf("rate change = %+v, %v", v, err)
	}
	obls := c.Outstanding("manager")
	if len(obls) != 1 || obls[0].Duty != "NotifyCustomers" || obls[0].Origin != "o-rate-change" {
		t.Fatalf("obligations = %+v", obls)
	}
	// Discharge it.
	if err := c.Discharge(obls[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Discharge(obls[0].ID); !errors.Is(err, ErrAlreadyDischarged) {
		t.Errorf("double discharge = %v", err)
	}
	if err := c.Discharge(999); !errors.Is(err, ErrNoSuchObligation) {
		t.Errorf("ghost discharge = %v", err)
	}
	if got := c.Outstanding(""); len(got) != 0 {
		t.Errorf("outstanding after discharge = %+v", got)
	}
}

func TestPerformativeActionChangesPolicy(t *testing.T) {
	// "Obtaining an account balance is not a performative action...
	// the changing of interest rates is": model opening withdraw rights
	// for tellers as a performative action and verify the policy set
	// actually changes.
	c := bankCommunity(t)
	if err := c.DeclarePerformative(PerformativeAction{
		Name: "GrantTellerWithdraw",
		Role: "manager",
		Effect: func(m *Mutator, params values.Value) error {
			if err := m.Grant(Policy{
				ID: "p-teller-withdraw", Kind: Permission, Role: "teller", Action: "Withdraw",
			}); err != nil {
				return err
			}
			m.Oblige("manager", "AuditTellerWithdrawals", "GrantTellerWithdraw")
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Before: denied.
	if _, err := c.Check("tom", "Withdraw", params(
		values.F("amount", values.Int(10)), values.F("withdrawn_today", values.Int(0)))); err == nil {
		t.Fatal("teller withdraw should start denied")
	}
	// Customers may not perform it.
	if err := c.Perform("alice", "GrantTellerWithdraw", values.Record()); !errors.Is(err, ErrNotPermitted) {
		t.Errorf("customer performative = %v", err)
	}
	if err := c.Perform("kerry", "GrantTellerWithdraw", values.Record()); err != nil {
		t.Fatal(err)
	}
	// After: permitted, and the side obligation exists.
	if _, err := c.Check("tom", "Withdraw", params(
		values.F("amount", values.Int(10)), values.F("withdrawn_today", values.Int(0)))); err != nil {
		t.Errorf("teller withdraw after grant = %v", err)
	}
	if obls := c.Outstanding("manager"); len(obls) != 1 || obls[0].Duty != "AuditTellerWithdrawals" {
		t.Errorf("obligations = %+v", obls)
	}
	// Revocation via a second performative.
	if err := c.DeclarePerformative(PerformativeAction{
		Name: "RevokeTellerWithdraw",
		Role: "manager",
		Effect: func(m *Mutator, _ values.Value) error {
			return m.Revoke("p-teller-withdraw")
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Perform("kerry", "RevokeTellerWithdraw", values.Record()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check("tom", "Withdraw", params(
		values.F("amount", values.Int(10)), values.F("withdrawn_today", values.Int(0)))); err == nil {
		t.Error("teller withdraw should be denied after revocation")
	}
}

func TestPerformativeErrors(t *testing.T) {
	c := bankCommunity(t)
	if err := c.DeclarePerformative(PerformativeAction{}); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("empty performative = %v", err)
	}
	ok := PerformativeAction{Name: "X", Effect: func(*Mutator, values.Value) error { return nil }}
	if err := c.DeclarePerformative(ok); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclarePerformative(ok); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup performative = %v", err)
	}
	if err := c.Perform("kerry", "Ghost", values.Record()); !errors.Is(err, ErrNoSuchAction) {
		t.Errorf("ghost performative = %v", err)
	}
	if err := c.Perform("ghost", "X", values.Record()); !errors.Is(err, ErrNoSuchMember) {
		t.Errorf("ghost actor = %v", err)
	}
	// Any-role performative works for anyone.
	if err := c.Perform("alice", "X", values.Record()); err != nil {
		t.Errorf("any-role performative = %v", err)
	}
}

func TestMutatorGrantValidation(t *testing.T) {
	c := bankCommunity(t)
	cases := []Policy{
		{},
		{ID: "z", Action: "A", Role: "ghost"},
		{ID: "p-deposit", Action: "A", Role: "teller"},
		{ID: "z", Action: "A", Role: "teller", Condition: "(("},
	}
	for i, p := range cases {
		p := p
		err := c.DeclarePerformative(PerformativeAction{
			Name:   string(rune('a' + i)),
			Effect: func(m *Mutator, _ values.Value) error { return m.Grant(p) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Perform("kerry", string(rune('a'+i)), values.Record()); err == nil {
			t.Errorf("bad grant %d accepted", i)
		}
	}
	// Revoke of missing policy errors.
	if err := c.RevokePolicy("nope"); !errors.Is(err, ErrNoSuchPolicy) {
		t.Errorf("revoke missing = %v", err)
	}
}

func TestPoliciesListing(t *testing.T) {
	c := bankCommunity(t)
	ps := c.Policies()
	if len(ps) != 5 || ps[0].ID != "p-deposit" {
		t.Errorf("policies = %d, first %q", len(ps), ps[0].ID)
	}
	if err := c.RevokePolicy("p-deposit"); err != nil {
		t.Fatal(err)
	}
	ps = c.Policies()
	if len(ps) != 4 || ps[0].ID != "p-withdraw" {
		t.Errorf("after revoke = %d, first %q", len(ps), ps[0].ID)
	}
}

func TestKindStrings(t *testing.T) {
	if Active.String() != "active" || Passive.String() != "passive" {
		t.Error("ObjectKind strings")
	}
	for k, want := range map[PolicyKind]string{
		Permission: "permission", Prohibition: "prohibition", ObligationRule: "obligation",
		PolicyKind(9): "policykind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d = %q, want %q", int(k), got, want)
		}
	}
}

func TestPerformativesListing(t *testing.T) {
	c := bankCommunity(t)
	if got := c.Performatives(); len(got) != 0 {
		t.Fatalf("performatives before any declaration = %v", got)
	}
	noop := func(*Mutator, values.Value) error { return nil }
	for _, name := range []string{"RaiseLimit", "CloseAccount"} {
		if err := c.DeclarePerformative(PerformativeAction{Name: name, Role: "manager", Effect: noop}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Performatives(); len(got) != 2 || got[0] != "CloseAccount" || got[1] != "RaiseLimit" {
		t.Fatalf("performatives = %v, want sorted [CloseAccount RaiseLimit]", got)
	}
}

// TestObligeDirect: an obligation created directly shares the numbering
// and the outstanding list with those a rule creates.
func TestObligeDirect(t *testing.T) {
	c := bankCommunity(t)
	o := c.Oblige("teller", "BalanceTill", "audit")
	if o.ID != 1 || o.Role != "teller" || o.Duty != "BalanceTill" || o.Origin != "audit" || o.Discharged {
		t.Fatalf("obligation = %+v", o)
	}
	if _, err := c.Check("kerry", "SetInterestRate", params()); err != nil {
		t.Fatal(err)
	}
	if got := c.Outstanding(""); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("outstanding = %+v, want the direct obligation then the rule's", got)
	}
	if got := c.Outstanding("teller"); len(got) != 1 || got[0].Duty != "BalanceTill" {
		t.Fatalf("teller's outstanding = %+v", got)
	}
	if err := c.Discharge(o.ID); err != nil {
		t.Fatal(err)
	}
	if got := c.Outstanding("teller"); len(got) != 0 {
		t.Fatalf("teller's outstanding after discharge = %+v", got)
	}
}
