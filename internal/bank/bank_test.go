package bank

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/engineering"
	"repro/internal/netsim"
	"repro/internal/relocator"
	"repro/internal/transactions"
	"repro/internal/types"
	"repro/internal/values"
)

// figure2 deploys the branch on a node and returns typed bindings to its
// teller, manager and loans-officer interfaces — the exact object
// configuration of Figure 2.
type figure2 struct {
	node    *engineering.Node
	store   *transactions.Store
	teller  *channel.Binding
	manager *channel.Binding
	loans   *channel.Binding
}

func deployFigure2(t *testing.T) *figure2 {
	t.Helper()
	net := netsim.New(1)
	reloc := relocator.New()
	node, err := engineering.NewNode(engineering.NodeConfig{
		ID: "bank", Endpoint: "sim://bank", Transport: net.From("bank"), Locations: reloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	coord := transactions.NewCoordinator()
	store := transactions.NewStore("branch-cbd", nil)
	RegisterBehavior(node.Behaviors(), coord, store)

	capsule, err := node.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cluster.CreateObject("bank.branch", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	bind := func(it *types.Interface) *channel.Binding {
		ref, err := obj.AddInterface(it)
		if err != nil {
			t.Fatal(err)
		}
		b, err := node.Bind(ref, channel.BindConfig{Type: it, Locator: reloc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	return &figure2{
		node:    node,
		store:   store,
		teller:  bind(TellerType()),
		manager: bind(ManagerType()),
		loans:   bind(LoansOfficerType()),
	}
}

func call(t *testing.T, b *channel.Binding, op string, args ...values.Value) (string, []values.Value) {
	t.Helper()
	term, res, err := b.Invoke(context.Background(), op, args)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return term, res
}

func str(s string) values.Value { return values.Str(s) }
func amt(d int64) values.Value  { return values.Int(d) }

func TestFigure2Scenario(t *testing.T) {
	f := deployFigure2(t)

	// Accounts can be created only through the bank manager interface.
	term, res := call(t, f.manager, "CreateAccount", str("alice"))
	if term != "OK" {
		t.Fatalf("CreateAccount = %q %v", term, res)
	}
	acct, _ := res[0].AsString()

	// The teller interface simply has no CreateAccount operation: the
	// client stub rejects it before it even reaches the wire.
	if _, _, err := f.teller.Invoke(context.Background(), "CreateAccount", []values.Value{str("bob")}); err == nil {
		t.Fatal("CreateAccount via teller interface should be impossible")
	}

	// Both interfaces can be used to deposit and withdraw money.
	if term, res := call(t, f.teller, "Deposit", str("alice"), str(acct), amt(1000)); term != "OK" {
		t.Fatalf("teller Deposit = %q %v", term, res)
	}
	if term, res := call(t, f.manager, "Withdraw", str("alice"), str(acct), amt(100)); term != "OK" {
		t.Fatalf("manager Withdraw = %q %v", term, res)
	}
	// And the loans officer substitutes for a teller too (Figure 3).
	if term, res := call(t, f.loans, "Withdraw", str("alice"), str(acct), amt(300)); term != "OK" {
		t.Fatalf("loans Withdraw = %q %v", term, res)
	}

	// The daily limit: 400 withdrawn so far; another 200 hits NotToday.
	term, res = call(t, f.teller, "Withdraw", str("alice"), str(acct), amt(200))
	if term != "NotToday" {
		t.Fatalf("over-limit withdrawal = %q %v", term, res)
	}
	if today, _ := res[0].AsInt(); today != 400 {
		t.Errorf("today = %d", today)
	}
	if limit, _ := res[1].AsInt(); limit != DailyLimit {
		t.Errorf("limit = %d", limit)
	}

	// Balance shows the aborted withdrawal did not touch the account.
	term, res = call(t, f.teller, "Balance", str("alice"), str(acct))
	if term != "OK" {
		t.Fatalf("Balance = %q", term)
	}
	if bal, _ := res[0].AsInt(); bal != 600 {
		t.Errorf("balance = %d, want 600", bal)
	}

	// Midnight reset (manager only) re-opens the day.
	if term, _ := call(t, f.manager, "ResetDay", str(acct)); term != "OK" {
		t.Fatalf("ResetDay = %q", term)
	}
	if term, _ = call(t, f.teller, "Withdraw", str("alice"), str(acct), amt(200)); term != "OK" {
		t.Fatalf("withdraw after reset = %q", term)
	}

	// Loans: the officer approves within the credit limit and declines
	// beyond it.
	term, res = call(t, f.loans, "ApproveLoan", str("alice"), str(acct), amt(1000))
	if term != "OK" {
		t.Fatalf("ApproveLoan = %q %v", term, res)
	}
	if term, _ := call(t, f.loans, "ApproveLoan", str("alice"), str(acct), amt(1_000_000)); term != "Declined" {
		t.Errorf("oversized loan = %q", term)
	}

	// Closing the account stops deposits (the enterprise permission's
	// "open account" condition).
	if term, _ := call(t, f.manager, "CloseAccount", str(acct)); term != "OK" {
		t.Fatal("CloseAccount failed")
	}
	if term, _ := call(t, f.teller, "Deposit", str("alice"), str(acct), amt(10)); term != "Error" {
		t.Errorf("deposit to closed account = %q", term)
	}
}

func TestBranchErrorCases(t *testing.T) {
	f := deployFigure2(t)
	term, res := call(t, f.manager, "CreateAccount", str("alice"))
	if term != "OK" {
		t.Fatal("CreateAccount failed")
	}
	acct, _ := res[0].AsString()

	cases := []struct {
		name string
		b    *channel.Binding
		op   string
		args []values.Value
		want string
	}{
		{"deposit-unknown-account", f.teller, "Deposit", []values.Value{str("x"), str("ghost"), amt(1)}, "Error"},
		{"deposit-negative", f.teller, "Deposit", []values.Value{str("x"), str(acct), amt(-5)}, "Error"},
		{"withdraw-unknown", f.teller, "Withdraw", []values.Value{str("x"), str("ghost"), amt(1)}, "Error"},
		{"withdraw-negative", f.teller, "Withdraw", []values.Value{str("x"), str(acct), amt(0)}, "Error"},
		{"withdraw-insufficient", f.teller, "Withdraw", []values.Value{str("x"), str(acct), amt(10)}, "Error"},
		{"balance-unknown", f.teller, "Balance", []values.Value{str("x"), str("ghost")}, "Error"},
		{"close-unknown", f.manager, "CloseAccount", []values.Value{str("ghost")}, "Error"},
		{"reset-unknown", f.manager, "ResetDay", []values.Value{str("ghost")}, "Error"},
		{"loan-unknown", f.loans, "ApproveLoan", []values.Value{str("x"), str("ghost"), amt(1)}, "Error"},
		{"loan-negative", f.loans, "ApproveLoan", []values.Value{str("x"), str(acct), amt(-1)}, "Error"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			term, _, err := c.b.Invoke(context.Background(), c.op, c.args)
			if err != nil || term != c.want {
				t.Errorf("%s = %q, %v; want %q", c.op, term, err, c.want)
			}
		})
	}
	// Unknown operation via an untyped direct handler call.
	coord := transactions.NewCoordinator()
	h := NewBranchHandler(coord, transactions.NewStore("x", nil))
	if _, _, err := h.Invoke(context.Background(), "Nope", nil); err == nil || !strings.Contains(err.Error(), "no operation") {
		t.Errorf("unknown op = %v", err)
	}
	// Without the Transactional refinement the behaviour refuses to run.
	raw := NewBranch(transactions.NewStore("y", nil))
	if _, _, err := raw.Invoke(context.Background(), "Balance", []values.Value{str("c"), str("a")}); err == nil {
		t.Error("un-refined branch should fail")
	}
}

// TestOnlyMintedIdsNameAccounts: an account is stored under the id the
// branch mints, beside the account counter, so an id of any other form —
// the counter's own key, the "acct/" layout of old, the empty id, the bare
// prefix — names no account. Every teller, manager and loans-officer
// operation answers it "no such account" and leaves the store as it was,
// and the next id minted is still the next one.
func TestOnlyMintedIdsNameAccounts(t *testing.T) {
	f := deployFigure2(t)
	if _, res := call(t, f.manager, "CreateAccount", str("alice")); !res[0].Equal(str("acct-1")) {
		t.Fatalf("first account = %v, want acct-1", res[0])
	}
	call(t, f.teller, "Deposit", str("alice"), str("acct-1"), amt(100))
	before := f.store.Snapshot()
	for _, id := range []string{"meta/next_account", "acct/acct-1", "", "acct-"} {
		for _, c := range []struct {
			b    *channel.Binding
			op   string
			args []values.Value
		}{
			{f.teller, "Deposit", []values.Value{str("alice"), str(id), amt(1)}},
			{f.teller, "Withdraw", []values.Value{str("alice"), str(id), amt(1)}},
			{f.teller, "Balance", []values.Value{str("alice"), str(id)}},
			{f.manager, "CloseAccount", []values.Value{str(id)}},
			{f.manager, "ResetDay", []values.Value{str(id)}},
			{f.loans, "ApproveLoan", []values.Value{str("alice"), str(id), amt(1)}},
		} {
			term, res := call(t, c.b, c.op, c.args...)
			if term != "Error" || len(res) != 1 || !res[0].Equal(str("no such account: "+id)) {
				t.Errorf("%s(%q) = %q %v, want no such account", c.op, id, term, res)
			}
		}
	}
	after := f.store.Snapshot()
	if len(after) != len(before) {
		t.Errorf("store holds %d keys, had %d: %v", len(after), len(before), after)
	}
	for k, v := range before {
		if !after[k].Equal(v) {
			t.Errorf("store[%q] = %v, was %v", k, after[k], v)
		}
	}
	if _, res := call(t, f.manager, "CreateAccount", str("bob")); !res[0].Equal(str("acct-2")) {
		t.Errorf("second account = %v, want acct-2", res[0])
	}
}

func TestConcurrentCustomersConserveMoney(t *testing.T) {
	// Many customers hammer one account pair with transfers composed of
	// Withdraw+Deposit in application code; the ACID refinement keeps each
	// operation atomic, and the error terminations roll back cleanly.
	f := deployFigure2(t)
	_, res := call(t, f.manager, "CreateAccount", str("alice"))
	acctA, _ := res[0].AsString()
	_, res = call(t, f.manager, "CreateAccount", str("bob"))
	acctB, _ := res[0].AsString()
	call(t, f.teller, "Deposit", str("alice"), str(acctA), amt(250))
	call(t, f.teller, "Deposit", str("bob"), str(acctB), amt(250))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				from, to := acctA, acctB
				if (w+i)%2 == 0 {
					from, to = acctB, acctA
				}
				term, _, err := f.teller.Invoke(context.Background(), "Withdraw",
					[]values.Value{str("c"), str(from), amt(1)})
				if err != nil {
					t.Errorf("withdraw: %v", err)
					return
				}
				if term != "OK" {
					continue // limit reached or drained; nothing moved
				}
				if _, _, err := f.teller.Invoke(context.Background(), "Deposit",
					[]values.Value{str("c"), str(to), amt(1)}); err != nil {
					t.Errorf("deposit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	_, resA := call(t, f.teller, "Balance", str("c"), str(acctA))
	_, resB := call(t, f.teller, "Balance", str("c"), str(acctB))
	balA, _ := resA[0].AsInt()
	balB, _ := resB[0].AsInt()
	if balA+balB != 500 {
		t.Errorf("total = %d, want 500 (money not conserved)", balA+balB)
	}
}

func TestInterfaceSubtypingMatchesFigure3(t *testing.T) {
	teller, manager, loans := TellerType(), ManagerType(), LoansOfficerType()
	if err := types.Subtype(manager, teller); err != nil {
		t.Errorf("manager ≤ teller: %v", err)
	}
	if err := types.Subtype(loans, teller); err != nil {
		t.Errorf("loans ≤ teller: %v", err)
	}
	if types.IsSubtype(teller, manager) || types.IsSubtype(loans, manager) {
		t.Error("nothing should substitute for the manager")
	}
}

func TestViewpointBuilders(t *testing.T) {
	c, err := NewCommunity("branch-cbd")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddObject("kerry", 1); err != nil { // enterprise.Active
		t.Fatal(err)
	}
	if err := c.Assign("kerry", "manager"); err != nil {
		t.Fatal(err)
	}
	m, err := NewModel()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PutObject("acct", "Account", NewAccountState(100)); err != nil {
		t.Fatal(err)
	}
	// The model rejects what the branch rejects.
	if err := m.Apply("acct", "Withdraw", values.Record(values.F("d", values.Int(600)))); err == nil {
		t.Error("over-limit withdrawal should violate the information model")
	}
	tmpl := Template("branch-cbd")
	if err := tmpl.Validate(); err != nil {
		t.Errorf("template: %v", err)
	}
	offers := false
	for _, d := range tmpl.Interfaces {
		offers = offers || d.Type.Name == "BankManager"
	}
	if !offers {
		t.Error("template should offer BankManager")
	}
}

func TestStorePersistsAcrossBehaviorInstances(t *testing.T) {
	// The branch's state outlives the behaviour instance (it lives in the
	// store), so deactivation or migration of the object keeps accounts.
	coord := transactions.NewCoordinator()
	log := transactions.NewLog()
	store := transactions.NewStore("branch", log)
	h1 := NewBranchHandler(coord, store)
	ctx := context.Background()
	term, res, err := h1.Invoke(ctx, "CreateAccount", []values.Value{str("alice")})
	if err != nil || term != "OK" {
		t.Fatal(err)
	}
	acct, _ := res[0].AsString()
	if term, _, err := h1.Invoke(ctx, "Deposit", []values.Value{str("alice"), str(acct), amt(42)}); err != nil || term != "OK" {
		t.Fatal(err)
	}
	// "Crash": rebuild the store from its log, then a new behaviour.
	recovered := transactions.Recover("branch", log, func(tx uint64) bool {
		committed, _ := coord.Decided(tx)
		return committed
	})
	h2 := NewBranchHandler(coord, recovered)
	term, res, err = h2.Invoke(ctx, "Balance", []values.Value{str("alice"), str(acct)})
	if err != nil || term != "OK" {
		t.Fatal(err)
	}
	if bal, _ := res[0].AsInt(); bal != 42 {
		t.Errorf("recovered balance = %d", bal)
	}
}
