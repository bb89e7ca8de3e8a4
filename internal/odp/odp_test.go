package odp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bank"
	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/technology"
	"repro/internal/trader"
	"repro/internal/transactions"
	"repro/internal/transparency"
	"repro/internal/types"
	"repro/internal/values"
)

func newBankSystem(t *testing.T) (*System, *Deployment, *transactions.Store) {
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
	return s, dep, store
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
	s, dep, _ := newBankSystem(t)
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
	s, _, _ := newBankSystem(t)
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

// fundedTeller returns a teller and a manager on the branch of Figure 2
// as every example reaches it — deployed by newBankSystem on node alpha,
// bound from host through the trader with access, location and relocation
// transparency — the arguments that name alice's account, funded with
// 1,000,000, and the branch's store.
func fundedTeller(t *testing.T, host string) (teller, manager *channel.Binding, acct []values.Value, store *transactions.Store) {
	t.Helper()
	s, _, store := newBankSystem(t)
	contract := core.Contract{Require: core.TransparencySet(core.Access | core.Location | core.Relocation)}
	bind := func(serviceType string) *channel.Binding {
		b, err := s.ImportAndBind(host, serviceType, "", contract)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	teller, manager = bind("BankTeller"), bind("BankManager")
	call := func(b *channel.Binding, op string, args ...values.Value) []values.Value {
		term, res, err := b.Invoke(context.Background(), op, args)
		if err != nil || term != "OK" {
			t.Fatalf("%s = %q, %v", op, term, err)
		}
		return res
	}
	id := call(manager, "CreateAccount", values.Str("alice"))[0]
	call(teller, "Deposit", values.Str("alice"), id, values.Int(1_000_000))
	return teller, manager, []values.Value{values.Str("alice"), id}, store
}

// TestTellerTerminations: every kind of return the branch makes reaches
// the caller through the server as its signature declares it — a balance,
// a new account's id, a withdrawal over the daily limit's NotToday with
// the day's withdrawals and the limit, and an Error with its reason. The
// branch appends its results into the spare capacity of the call's
// argument buffer, so this is the check that they survive the reply.
func TestTellerTerminations(t *testing.T) {
	for _, c := range []struct {
		name, op string
		amount   []values.Value
		term     string
		results  []values.Value
	}{
		{"deposit", "Deposit", []values.Value{values.Int(1)}, "OK", []values.Value{values.Int(1_000_001)}},
		{"balance", "Balance", nil, "OK", []values.Value{values.Int(1_000_000)}},
		{"withdraw", "Withdraw", []values.Value{values.Int(400)}, "OK", []values.Value{values.Int(999_600)}},
		{"withdraw-denied", "Withdraw", []values.Value{values.Int(bank.DailyLimit + 1)}, "NotToday",
			[]values.Value{values.Int(0), values.Int(bank.DailyLimit)}},
		{"create-account", "CreateAccount", nil, "OK", []values.Value{values.Str("acct-2")}},
		{"deposit-refused", "Deposit", []values.Value{values.Int(0)}, "Error",
			[]values.Value{values.Str("deposit amount must be positive")}},
	} {
		t.Run(c.name, func(t *testing.T) {
			teller, manager, acct, _ := fundedTeller(t, "client")
			b, args := teller, append(acct, c.amount...)
			if c.op == "CreateAccount" { // a manager's operation, naming only the customer
				b, args = manager, acct[:1]
			}
			term, res, err := b.Invoke(context.Background(), c.op, args)
			if err != nil || term != c.term || !slices.EqualFunc(res, c.results, values.Value.Equal) {
				t.Fatalf("%s = %q %v, %v; want %q %v", c.op, term, res, err, c.term, c.results)
			}
		})
	}
}

// tellerCost returns what one warmed-up teller call op allocates on a
// fundedTeller bound from host, in allocations and in bytes: the mean over
// 400 calls, taken as testing.AllocsPerRun takes it. Each call must
// terminate OK. The warm-up deposits until the branch store has
// checkpointed its log, so the figure is the bounded log's steady state,
// not its first growth. 400 is a multiple of the 80 values of a carved
// result chunk, so the calls start exactly five chunks wherever the
// carver's current chunk stands, and a carved result measures its 40 B.
func tellerCost(t *testing.T, host, op string, amount ...values.Value) (allocs, bytes uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so allocation counts vary")
	}
	teller, _, acct, store := fundedTeller(t, host)
	invoke := func(op string, args []values.Value) {
		if term, _, err := teller.Invoke(context.Background(), op, args); err != nil || term != "OK" {
			t.Fatalf("%s = %q, %v", op, term, err)
		}
	}
	deposit := append(acct[:len(acct):len(acct)], values.Int(1))
	for n, last := store.Log().Len(), -1; n > last; n, last = store.Log().Len(), n {
		invoke("Deposit", deposit)
	}
	args := append(acct, amount...)
	call := func() { invoke(op, args) }
	const runs = 400
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	call()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestE2DepositAllocBudget keeps the single-binding hot path to what an
// invocation hands on: for a write, the record it commits (1, and 1
// spare). The client's copy of its results is a region carved from a
// shared chunk of 80 values, 1/80 of an allocation. The server reads the
// call's arguments from the request message's own buffer and the branch
// appends its result into that buffer's spare capacity, the branch stores
// the account under the id the call names, the Tx is recycled, the lone
// branch store commits in one phase with no decision entry, and the log
// copies the write set into an arena its checkpoints reuse, so none of
// them adds anything. That measures ~267 B, the record and the carved
// result's 40 B; the budget is 304.
func TestE2DepositAllocBudget(t *testing.T) {
	allocs, bytes := tellerCost(t, "client", "Deposit", values.Int(1))
	if allocs > 2 {
		t.Errorf("E2 deposit = %d allocs/op, budget 2", allocs)
	}
	if bytes > 304 {
		t.Errorf("E2 deposit = %d B/op, budget 304", bytes)
	}
}

// TestE2BalanceAllocBudget: a read allocates nothing of its own (0, and
// 1 spare) — no result slice at the servant, no record, no log record, no
// decision entry, no commit machinery — and the client's copy of its
// results is a 40 B region carved from a shared chunk of 80 values,
// measuring ~43 B (budget 48, under the 96 B a freshly allocated result
// slice would cost).
func TestE2BalanceAllocBudget(t *testing.T) {
	allocs, bytes := tellerCost(t, "client", "Balance")
	if allocs > 1 {
		t.Errorf("E2 balance = %d allocs/op, budget 1", allocs)
	}
	if bytes > 48 {
		t.Errorf("E2 balance = %d B/op, budget 48", bytes)
	}
}

// TestFacadeLocalBalanceAllocBudget is the floor under facade_local's
// allocs_per_op: a Balance through an ImportAndBind binding made on the
// servant's own node allocates at most 1 per call, measuring 0.
func TestFacadeLocalBalanceAllocBudget(t *testing.T) {
	if allocs, _ := tellerCost(t, "alpha", "Balance"); allocs > 1 {
		t.Errorf("collocated balance = %d allocs/op, budget 1", allocs)
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
	tmpl.Interfaces[0].Contract.Require |= core.TransparencySet(core.Persistence)
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
	s.Bus.Subscribe("odp.deployed", func(ev coordination.Event) {
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
// the transparencies: one counter under each contract

type counter struct{ n atomic.Int64 }

func (c *counter) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if op == "Inc" {
		d, _ := args[0].AsInt()
		return "OK", []values.Value{values.Int(c.n.Add(d))}, nil
	}
	return "OK", []values.Value{values.Int(c.n.Load())}, nil
}

func (c *counter) CheckpointState() (values.Value, error) { return values.Int(c.n.Load()), nil }
func (c *counter) RestoreState(v values.Value) error {
	n, _ := v.AsInt()
	c.n.Store(n)
	return nil
}

// deployCounter deploys a counter on a new node host of s, its interface
// under contract.
func deployCounter(t *testing.T, s *System, host string, contract core.Contract) naming.InterfaceRef {
	t.Helper()
	node, err := s.CreateNode(host)
	if err != nil {
		t.Fatal(err)
	}
	node.Behaviors().Register("counter", func(values.Value) (engineering.Behavior, error) { return &counter{}, nil })
	dep, err := s.Deploy(node, core.ObjectTemplate{
		Name:     "counter",
		Behavior: "counter",
		Interfaces: []core.InterfaceDecl{{Type: types.OpInterface("Counter",
			types.Op("Inc", types.Params(types.P("d", values.TInt())), types.Term("OK", types.P("n", values.TInt()))),
			types.Op("Get", nil, types.Term("OK", types.P("n", values.TInt()))),
		), Contract: contract}},
	}, values.Null())
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := dep.Ref("Counter")
	return ref
}

// TestTransparencyMatrix: whatever transparencies a contract requires, the
// counter behind it counts each call exactly once; behind a replica group
// every replica counts it.
func TestTransparencyMatrix(t *testing.T) {
	type invoker interface {
		Invoke(context.Context, string, []values.Value) (string, []values.Value, error)
	}
	call := func(t *testing.T, b invoker, op string, args ...values.Value) int64 {
		t.Helper()
		term, res, err := b.Invoke(context.Background(), op, args)
		if err != nil || term != "OK" {
			t.Fatalf("%s = %q, %v", op, term, err)
		}
		n, _ := res[0].AsInt()
		return n
	}
	countsThree := func(t *testing.T, b invoker) {
		t.Helper()
		for want := int64(1); want <= 3; want++ {
			if n := call(t, b, "Inc", values.Int(1)); n != want {
				t.Fatalf("call %d counted %d", want, n)
			}
		}
	}
	for i, set := range []struct {
		name string
		req  core.Transparency
	}{
		{"none", 0},
		{"access", core.Access},
		{"access+location+relocation", core.Access | core.Location | core.Relocation},
		{"access+failure", core.Access | core.Failure},
		{"all-channel", core.Access | core.Location | core.Relocation | core.Migration | core.Persistence | core.Failure},
	} {
		t.Run(set.name, func(t *testing.T) {
			s := NewSystem(int64(i + 1))
			t.Cleanup(func() { s.Close() })
			contract := core.Contract{Require: core.TransparencySet(set.req)}
			b, err := s.Bind("client", deployCounter(t, s, "n", contract), contract)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			countsThree(t, b)
		})
	}
	for _, r := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("replication/r=%d", r), func(t *testing.T) {
			s := NewSystem(int64(100 + r))
			t.Cleanup(func() { s.Close() })
			contract := core.Contract{Require: core.TransparencySet(core.Replication | core.Location | core.Relocation), Replicas: r}
			refs := make([]naming.InterfaceRef, r)
			for i := range refs {
				refs[i] = deployCounter(t, s, fmt.Sprintf("r%d", i), contract)
			}
			g, err := transparency.Replicate(refs, contract, s.Env("client"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { g.Close() })
			countsThree(t, g)
			for i, ref := range refs {
				b, err := s.Bind("client", ref, core.Contract{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.Close() })
				if n := call(t, b, "Get"); n != 3 {
					t.Errorf("replica %d counted %d of 3 calls", i, n)
				}
			}
		})
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
