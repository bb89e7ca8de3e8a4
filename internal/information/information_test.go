package information

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/values"
)

// bankModel is the tutorial's Section 4 example, executable: accounts
// with balance and withdrawn-today, the $500 invariant, withdrawal and
// deposit dynamic schemas, the midnight static schema and the
// owns-account relationship.
func bankModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel()
	acct := func(balance, withdrawn int64) values.Value {
		return values.Record(
			values.F("balance", values.Int(balance)),
			values.F("withdrawn_today", values.Int(withdrawn)),
		)
	}
	if err := m.PutObject("acct-alice", "Account", acct(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.PutObject("acct-bob", "Account", acct(50, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.PutObject("alice", "Customer", values.Record(values.F("name", values.Str("Alice")))); err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(InvariantSchema{
		Name: "daily-limit", Object: "Account",
		Condition: "withdrawn_today <= 500",
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(InvariantSchema{
		Name: "withdrawn-non-negative", Object: "Account",
		Condition: "withdrawn_today >= 0",
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDynamic(DynamicSchema{
		Name: "Withdraw", Object: "Account",
		Guard: "x > 0 and balance >= x",
		Assignments: []Assignment{
			{Field: "balance", Expr: "balance - x"},
			{Field: "withdrawn_today", Expr: "withdrawn_today + x"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDynamic(DynamicSchema{
		Name: "Deposit", Object: "Account",
		Guard: "x > 0",
		Assignments: []Assignment{
			{Field: "balance", Expr: "balance + x"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDynamic(DynamicSchema{
		Name: "MidnightReset", Object: "Account",
		Assignments: []Assignment{
			{Field: "withdrawn_today", Expr: "0"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddStatic(StaticSchema{
		Name: "midnight", Object: "Account",
		Condition: "withdrawn_today == 0",
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.DeclareRelation(RelationDecl{Name: "owns_account", MaxFrom: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Relate("owns_account", "alice", "acct-alice"); err != nil {
		t.Fatal(err)
	}
	return m
}

func x(n int64) values.Value { return values.Record(values.F("x", values.Int(n))) }

func balance(t *testing.T, m *Model, obj string) int64 {
	t.Helper()
	st, err := m.Object(obj)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := st.FieldByName("balance")
	i, _ := b.AsInt()
	return i
}

func withdrawn(t *testing.T, m *Model, obj string) int64 {
	t.Helper()
	st, err := m.Object(obj)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := st.FieldByName("withdrawn_today")
	i, _ := w.AsInt()
	return i
}

func TestTutorialWithdrawalScenario(t *testing.T) {
	// "$400 could be withdrawn in the morning but an additional $200 could
	// not be withdrawn in the afternoon as the amount-withdrawn-today
	// cannot exceed $500."
	m := bankModel(t)
	if err := m.Apply("acct-alice", "Withdraw", x(400)); err != nil {
		t.Fatalf("morning withdrawal: %v", err)
	}
	if got := balance(t, m, "acct-alice"); got != 600 {
		t.Errorf("balance = %d", got)
	}
	if got := withdrawn(t, m, "acct-alice"); got != 400 {
		t.Errorf("withdrawn = %d", got)
	}
	err := m.Apply("acct-alice", "Withdraw", x(200))
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("afternoon withdrawal = %v, want invariant violation", err)
	}
	// State unchanged by the rejected change.
	if got := balance(t, m, "acct-alice"); got != 600 {
		t.Errorf("balance after rejection = %d", got)
	}
	if got := withdrawn(t, m, "acct-alice"); got != 400 {
		t.Errorf("withdrawn after rejection = %d", got)
	}
	// A $100 withdrawal still fits under the limit.
	if err := m.Apply("acct-alice", "Withdraw", x(100)); err != nil {
		t.Errorf("final withdrawal: %v", err)
	}
	// The midnight static schema does not hold now...
	if err := m.CheckStatic("midnight", "acct-alice"); !errors.Is(err, ErrStatic) {
		t.Errorf("midnight before reset = %v", err)
	}
	// ...but does after the reset dynamic schema.
	if err := m.Apply("acct-alice", "MidnightReset", values.Null()); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckStatic("midnight", "acct-alice"); err != nil {
		t.Errorf("midnight after reset = %v", err)
	}
	changes, rejections := m.Stats()
	if changes != 4 || rejections != 1 {
		t.Errorf("stats = %d/%d", changes, rejections)
	}
}

func TestGuardRejections(t *testing.T) {
	m := bankModel(t)
	// Overdraw: guard balance >= x fails.
	if err := m.Apply("acct-bob", "Withdraw", x(100)); !errors.Is(err, ErrGuard) {
		t.Errorf("overdraw = %v", err)
	}
	// Non-positive amounts.
	if err := m.Apply("acct-bob", "Withdraw", x(0)); !errors.Is(err, ErrGuard) {
		t.Errorf("zero withdrawal = %v", err)
	}
	if err := m.Apply("acct-bob", "Deposit", x(-5)); !errors.Is(err, ErrGuard) {
		t.Errorf("negative deposit = %v", err)
	}
	if got := balance(t, m, "acct-bob"); got != 50 {
		t.Errorf("balance = %d", got)
	}
}

func TestApplyErrors(t *testing.T) {
	m := bankModel(t)
	if err := m.Apply("ghost", "Withdraw", x(1)); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("ghost object = %v", err)
	}
	if err := m.Apply("acct-alice", "Ghost", x(1)); !errors.Is(err, ErrNoSuchSchema) {
		t.Errorf("ghost schema = %v", err)
	}
	// Schema scoped to Account cannot run on a Customer.
	if err := m.Apply("alice", "Withdraw", x(1)); !errors.Is(err, ErrBadSchema) {
		t.Errorf("wrong kind = %v", err)
	}
	// Parameter names colliding with state names are rejected.
	if err := m.Apply("acct-alice", "Withdraw",
		values.Record(values.F("balance", values.Int(1)))); !errors.Is(err, ErrNameCollision) {
		t.Errorf("collision = %v", err)
	}
	// Params must be a record.
	if err := m.Apply("acct-alice", "Withdraw", values.Int(4)); !errors.Is(err, ErrBadSchema) {
		t.Errorf("non-record params = %v", err)
	}
}

func TestSchemaValidation(t *testing.T) {
	m := NewModel()
	if err := m.PutObject("o", "K", values.Int(1)); !errors.Is(err, ErrBadSchema) {
		t.Errorf("non-record state = %v", err)
	}
	if err := m.AddInvariant(InvariantSchema{Name: "", Condition: "true"}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("unnamed invariant = %v", err)
	}
	if err := m.AddInvariant(InvariantSchema{Name: "x", Condition: "(("}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("bad invariant condition = %v", err)
	}
	if err := m.AddStatic(StaticSchema{Name: "", Condition: "true"}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("unnamed static = %v", err)
	}
	if err := m.AddStatic(StaticSchema{Name: "s", Condition: "(("}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("bad static = %v", err)
	}
	if err := m.AddDynamic(DynamicSchema{Name: ""}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("unnamed dynamic = %v", err)
	}
	if err := m.AddDynamic(DynamicSchema{Name: "d"}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("empty dynamic = %v", err)
	}
	if err := m.AddDynamic(DynamicSchema{Name: "d", Guard: "((", Assignments: []Assignment{{Field: "f", Expr: "1"}}}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("bad guard = %v", err)
	}
	if err := m.AddDynamic(DynamicSchema{Name: "d", Assignments: []Assignment{{Field: "", Expr: "1"}}}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("unnamed field = %v", err)
	}
	if err := m.AddDynamic(DynamicSchema{Name: "d", Assignments: []Assignment{{Field: "f", Expr: "(("}}}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("bad assignment = %v", err)
	}
	// Duplicates.
	ok := DynamicSchema{Name: "d", Assignments: []Assignment{{Field: "f", Expr: "1"}}}
	if err := m.AddDynamic(ok); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDynamic(ok); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup dynamic = %v", err)
	}
	if err := m.AddStatic(StaticSchema{Name: "s", Condition: "true"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddStatic(StaticSchema{Name: "s", Condition: "true"}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup static = %v", err)
	}
	if err := m.AddInvariant(InvariantSchema{Name: "i", Condition: "true"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(InvariantSchema{Name: "i", Condition: "true"}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup invariant = %v", err)
	}
}

func TestRetroactiveInvariantRejected(t *testing.T) {
	m := bankModel(t)
	// acct-alice has balance 1000; an invariant demanding balance < 100 is
	// rejected because existing state violates it.
	err := m.AddInvariant(InvariantSchema{Name: "tiny", Object: "Account", Condition: "balance < 100"})
	if !errors.Is(err, ErrInvariant) {
		t.Errorf("retroactive invariant = %v", err)
	}
	// New objects must satisfy the invariants immediately.
	err = m.PutObject("acct-evil", "Account", values.Record(
		values.F("balance", values.Int(0)),
		values.F("withdrawn_today", values.Int(9999)),
	))
	if !errors.Is(err, ErrInvariant) {
		t.Errorf("bad initial state = %v", err)
	}
}

func TestPostCondition(t *testing.T) {
	m := bankModel(t)
	if err := m.AddDynamic(DynamicSchema{
		Name: "SafeDouble", Object: "Account",
		Assignments: []Assignment{{Field: "balance", Expr: "balance * 2"}},
		Post:        "balance <= 1500",
	}); err != nil {
		t.Fatal(err)
	}
	// bob: 50 -> 100 fine.
	if err := m.Apply("acct-bob", "SafeDouble", values.Null()); err != nil {
		t.Errorf("bob double = %v", err)
	}
	// alice: 1000 -> 2000 violates the post-condition.
	if err := m.Apply("acct-alice", "SafeDouble", values.Null()); !errors.Is(err, ErrGuard) {
		t.Errorf("alice double = %v", err)
	}
	if got := balance(t, m, "acct-alice"); got != 1000 {
		t.Errorf("alice balance = %d", got)
	}
}

func TestRelationships(t *testing.T) {
	m := bankModel(t)
	if got := m.Related("owns_account", "alice"); len(got) != 1 || got[0] != "acct-alice" {
		t.Errorf("Related = %v", got)
	}
	if got := m.Owners("owns_account", "acct-alice"); len(got) != 1 || got[0] != "alice" {
		t.Errorf("Owners = %v", got)
	}
	// MaxFrom=1: a second customer cannot own alice's account.
	if err := m.PutObject("bob", "Customer", values.Record(values.F("name", values.Str("Bob")))); err != nil {
		t.Fatal(err)
	}
	if err := m.Relate("owns_account", "bob", "acct-alice"); !errors.Is(err, ErrCardinality) {
		t.Errorf("second owner = %v", err)
	}
	// But alice may own more accounts (MaxTo unbounded).
	if err := m.Relate("owns_account", "alice", "acct-bob"); err != nil {
		t.Errorf("second account = %v", err)
	}
	// Idempotent relate.
	if err := m.Relate("owns_account", "alice", "acct-alice"); err != nil {
		t.Errorf("idempotent relate = %v", err)
	}
	// Unrelate.
	if err := m.Unrelate("owns_account", "alice", "acct-bob"); err != nil {
		t.Fatal(err)
	}
	if got := m.Related("owns_account", "alice"); len(got) != 1 {
		t.Errorf("after unrelate = %v", got)
	}
	// Errors.
	if err := m.Relate("ghost", "alice", "acct-alice"); !errors.Is(err, ErrNoSuchRelation) {
		t.Errorf("ghost relation = %v", err)
	}
	if err := m.Relate("owns_account", "ghost", "acct-alice"); !errors.Is(err, ErrNotRelatable) {
		t.Errorf("ghost from = %v", err)
	}
	if err := m.Relate("owns_account", "alice", "ghost"); !errors.Is(err, ErrNotRelatable) {
		t.Errorf("ghost to = %v", err)
	}
	if err := m.Unrelate("ghost", "a", "b"); !errors.Is(err, ErrNoSuchRelation) {
		t.Errorf("ghost unrelate = %v", err)
	}
	if err := m.DeclareRelation(RelationDecl{Name: "owns_account"}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup relation = %v", err)
	}
	if err := m.DeclareRelation(RelationDecl{}); !errors.Is(err, ErrBadSchema) {
		t.Errorf("unnamed relation = %v", err)
	}
}

func TestMaxToCardinality(t *testing.T) {
	m := NewModel()
	for _, o := range []string{"a", "b", "c"} {
		if err := m.PutObject(o, "K", values.Record()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DeclareRelation(RelationDecl{Name: "r", MaxTo: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Relate("r", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Relate("r", "a", "c"); !errors.Is(err, ErrCardinality) {
		t.Errorf("MaxTo = %v", err)
	}
}

func TestComposite(t *testing.T) {
	// Composite member names must be expression identifiers (no hyphens),
	// since composite schemas reference members by dotted paths.
	m := bankModel(t)
	acct := func(balance int64) values.Value {
		return values.Record(
			values.F("balance", values.Int(balance)),
			values.F("withdrawn_today", values.Int(0)),
		)
	}
	if err := m.PutObject("acct_a", "Account", acct(900)); err != nil {
		t.Fatal(err)
	}
	if err := m.PutObject("acct_b", "Account", acct(100)); err != nil {
		t.Fatal(err)
	}
	if err := m.DeclareComposite("branch", "acct_a", "acct_b"); err != nil {
		t.Fatal(err)
	}
	// A composite invariant over member states: total branch balance stays
	// positive.
	if err := m.AddInvariant(InvariantSchema{
		Name: "branch-solvent", Object: "composite:branch",
		Condition: "acct_a.balance + acct_b.balance > 0",
	}); err != nil {
		t.Fatal(err)
	}
	// Static check of the composite is possible too.
	if err := m.AddStatic(StaticSchema{
		Name: "solvency-now", Object: "composite:branch",
		Condition: "acct_a.balance + acct_b.balance >= 1000",
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckStatic("solvency-now", "branch"); err != nil {
		t.Errorf("composite static = %v", err)
	}
	// Errors.
	if err := m.DeclareComposite("branch", "acct_a"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup composite = %v", err)
	}
	if err := m.DeclareComposite("b2", "ghost"); !errors.Is(err, ErrCompositeMember) {
		t.Errorf("ghost member = %v", err)
	}
}

func TestObjectListingAndLookup(t *testing.T) {
	m := bankModel(t)
	objs := m.Objects()
	if len(objs) != 3 {
		t.Errorf("objects = %v", objs)
	}
	if _, err := m.Object("ghost"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("ghost object = %v", err)
	}
	if err := m.CheckStatic("ghost", "acct-alice"); !errors.Is(err, ErrNoSuchSchema) {
		t.Errorf("ghost static = %v", err)
	}
	if err := m.CheckStatic("midnight", "ghost"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("static on ghost = %v", err)
	}
}

// Property: no sequence of Withdraw/Deposit applications can ever drive
// withdrawn_today above 500 or balance below 0 — the invariants hold under
// arbitrary interleavings (the model's core guarantee).
func TestInvariantPreservationProperty(t *testing.T) {
	f := func(amounts []int16) bool {
		m := NewModel()
		if err := m.PutObject("acct", "Account", values.Record(
			values.F("balance", values.Int(500)),
			values.F("withdrawn_today", values.Int(0)),
		)); err != nil {
			return false
		}
		if err := m.AddInvariant(InvariantSchema{Name: "limit", Object: "Account", Condition: "withdrawn_today <= 500"}); err != nil {
			return false
		}
		if err := m.AddInvariant(InvariantSchema{Name: "nonneg", Object: "Account", Condition: "balance >= 0"}); err != nil {
			return false
		}
		if err := m.AddDynamic(DynamicSchema{
			Name: "Withdraw", Object: "Account",
			Guard: "x > 0",
			Assignments: []Assignment{
				{Field: "balance", Expr: "balance - x"},
				{Field: "withdrawn_today", Expr: "withdrawn_today + x"},
			},
		}); err != nil {
			return false
		}
		if err := m.AddDynamic(DynamicSchema{
			Name: "Deposit", Object: "Account",
			Guard:       "x > 0",
			Assignments: []Assignment{{Field: "balance", Expr: "balance + x"}},
		}); err != nil {
			return false
		}
		for _, a := range amounts {
			amt := int64(a)
			if amt%2 == 0 {
				_ = m.Apply("acct", "Deposit", x(amt))
			} else {
				_ = m.Apply("acct", "Withdraw", x(amt))
			}
			st, err := m.Object("acct")
			if err != nil {
				return false
			}
			b, _ := st.FieldByName("balance")
			w, _ := st.FieldByName("withdrawn_today")
			bi, _ := b.AsInt()
			wi, _ := w.AsInt()
			if bi < 0 || wi > 500 || wi < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDynamicsListing: the declared dynamic schemas are listed sorted and
// each is found by name; an undeclared one is not.
func TestDynamicsListing(t *testing.T) {
	m := bankModel(t)
	if got := m.Dynamics(); !slices.Equal(got, []string{"Deposit", "MidnightReset", "Withdraw"}) {
		t.Fatalf("Dynamics() = %v", got)
	}
	if !m.HasDynamic("Withdraw") {
		t.Error("HasDynamic(Withdraw) = false")
	}
	if m.HasDynamic("Transfer") {
		t.Error("HasDynamic(Transfer) = true for an undeclared schema")
	}
	if got := NewModel().Dynamics(); len(got) != 0 {
		t.Errorf("empty model Dynamics() = %v", got)
	}
}
