// Package experiments builds the measurable scenarios of EXPERIMENTS.md —
// one per figure of the tutorial (the paper has no measured tables; each
// structural figure is turned into a quantitative experiment). Sections
// is the one table of them: the root bench_test.go wraps its scenario
// sets in testing.B benchmarks, cmd/odpbench prints every section's
// records, and Gates holds the claims CI checks against those records.
package experiments

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/bank"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/odp"
	"repro/internal/policy"
	"repro/internal/relocator"
	"repro/internal/security"
	"repro/internal/technology"
	"repro/internal/trader"
	"repro/internal/transactions"
	"repro/internal/transparency"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

// Scenario is one measurable configuration: Run executes a single
// operation of the experiment; Close releases its resources.
type Scenario struct {
	Name  string
	Run   func() error
	Close func()
}

func must(err error) {
	if err != nil {
		log.Panicf("experiments: setup failed: %v", err)
	}
}

// ---------------------------------------------------------------------------
// E1 — Figure 1: cross-viewpoint consistency check of the bank

// E1Consistency builds the full five-viewpoint bank specification and
// returns a scenario whose Run performs one complete consistency check.
func E1Consistency() []Scenario {
	community, err := bank.NewCommunity("branch")
	must(err)
	model, err := bank.NewModel()
	must(err)
	tech := technology.NewSpecification("sim")
	must(tech.Choose("transport", values.Record(values.F("kind", values.Str("sim")))))
	must(tech.Require(technology.Requirement{Name: "transport", Condition: "exist transport.kind"}))
	spec := odp.Spec{
		Community:  community,
		Model:      model,
		Templates:  []core.ObjectTemplate{bank.Template("branch")},
		Technology: tech,
		Links: []odp.Correspondence{
			{Action: "Deposit", Interface: "BankTeller", Operation: "Deposit", Schema: "Deposit"},
			{Action: "Withdraw", Interface: "BankTeller", Operation: "Withdraw", Schema: "Withdraw"},
			{Action: "Balance", Interface: "BankTeller", Operation: "Balance"},
			{Action: "CreateAccount", Interface: "BankManager", Operation: "CreateAccount"},
			{Action: "ApproveLoan", Interface: "LoansOfficer", Operation: "ApproveLoan"},
		},
	}
	return []Scenario{{
		Name: "viewpoint-consistency",
		Run: func() error {
			if errs := odp.Errors(odp.CheckConsistency(spec, nil)); len(errs) != 0 {
				return fmt.Errorf("inconsistent: %v", errs)
			}
			return nil
		},
		Close: func() {},
	}}
}

// ---------------------------------------------------------------------------
// E2 — Figure 2: the bank branch under invocation load

// E2Bank deploys the branch and returns one scenario per operation mix.
func E2Bank() []Scenario {
	system := odp.NewSystem(1)
	node, err := system.CreateNode("bank")
	must(err)
	coord := transactions.NewCoordinator()
	store := transactions.NewStore("branch", nil)
	bank.RegisterBehavior(node.Behaviors(), coord, store)
	_, err = system.Deploy(node, bank.Template("branch"), values.Null())
	must(err)
	contract := core.Contract{Require: core.TransparencySet(core.Access | core.Location | core.Relocation)}
	teller, err := system.ImportAndBind("client", "BankTeller", "", contract)
	must(err)
	manager, err := system.ImportAndBind("client", "BankManager", "", contract)
	must(err)
	ctx := context.Background()
	term, res, err := manager.Invoke(ctx, "CreateAccount", []values.Value{values.Str("alice")})
	must(err)
	if term != "OK" {
		must(fmt.Errorf("CreateAccount: %s", term))
	}
	acct := res[0]
	_, _, err = teller.Invoke(ctx, "Deposit", []values.Value{values.Str("alice"), acct, values.Int(1_000_000)})
	must(err)
	closeAll := func() {
		teller.Close()
		manager.Close()
		system.Close()
	}
	expectTerm := func(op, want string, args ...values.Value) func() error {
		return func() error {
			term, _, err := teller.Invoke(ctx, op, args)
			if err != nil {
				return err
			}
			if term != want {
				return fmt.Errorf("%s = %q, want %q", op, term, want)
			}
			return nil
		}
	}
	return []Scenario{
		{Name: "deposit", Run: expectTerm("Deposit", "OK", values.Str("alice"), acct, values.Int(1)), Close: closeAll},
		{Name: "balance", Run: expectTerm("Balance", "OK", values.Str("alice"), acct), Close: func() {}},
		{Name: "withdraw-denied", Run: expectTerm("Withdraw", "NotToday", values.Str("alice"), acct, values.Int(bank.DailyLimit+1)), Close: func() {}},
	}
}

// ---------------------------------------------------------------------------
// E3 — Figure 3: subtype checking cost

// syntheticInterface builds an operational interface with the given
// number of operations, each with `params` parameters.
func syntheticInterface(name string, ops, params int) *types.Interface {
	operations := make([]types.Operation, ops)
	for i := range operations {
		ps := make([]types.Parameter, params)
		for j := range ps {
			ps[j] = types.P(fmt.Sprintf("p%d", j), values.TInt())
		}
		operations[i] = types.Op(fmt.Sprintf("op%d", i), ps,
			types.Term("OK", types.P("r", values.TInt())),
			types.Term("Error", types.P("reason", values.TString())),
		)
	}
	return &types.Interface{Name: name, Kind: types.Operational, Operations: operations}
}

// E3Subtype returns structural-check scenarios at increasing signature
// sizes plus the memoised repository check.
func E3Subtype() []Scenario {
	var out []Scenario
	for _, size := range []int{1, 4, 16, 64} {
		super := syntheticInterface(fmt.Sprintf("Super%d", size), size, 3)
		sub := types.Extend(fmt.Sprintf("Sub%d", size), super, types.Announce("extra"))
		out = append(out, Scenario{
			Name: fmt.Sprintf("structural/ops=%d", size),
			Run: func() error {
				return types.Subtype(sub, super)
			},
			Close: func() {},
		})
	}
	// Repository-cached check (what the trader does per offer).
	repo := typerepo.New()
	super := syntheticInterface("Super", 16, 3)
	sub := types.Extend("Sub", super, types.Announce("extra"))
	must(repo.RegisterInterface(super))
	must(repo.RegisterInterface(sub))
	out = append(out, Scenario{
		Name: "repository-memoised/ops=16",
		Run: func() error {
			ok, err := repo.IsSubtype("Sub", "Super")
			if err != nil || !ok {
				return fmt.Errorf("IsSubtype = %v, %v", ok, err)
			}
			return nil
		},
		Close: func() {},
	})
	return out
}

// ---------------------------------------------------------------------------
// E4 — Figure 4: channel composition ablation

type e4Servant struct{}

func (e4Servant) Invoke(_ context.Context, _ string, args []values.Value) (string, []values.Value, error) {
	return "OK", args, nil
}

// E4Codec isolates the transfer-syntax cost (access transparency's data
// layer): encode+decode of a representative argument record under each
// codec, without the channel round trip that otherwise drowns the
// difference in scheduling noise.
func E4Codec() []Scenario {
	payload := values.Record(
		values.F("c", values.Str("alice")),
		values.F("a", values.Str("acct-1")),
		values.F("d", values.Int(400)),
		values.F("memo", values.Str("the quick brown fox jumps over")),
		values.F("tags", values.Seq(values.Str("atm"), values.Str("cbd"), values.Str("odd"))),
	)
	var out []Scenario
	for _, codec := range []wire.Codec{wire.Native, wire.Canonical} {
		c := codec
		buf := make([]byte, 0, 256)
		out = append(out, Scenario{
			Name: "codec-only/" + c.Name(),
			Run: func() error {
				b, err := c.AppendValue(buf[:0], payload)
				if err != nil {
					return err
				}
				_, _, err = c.ReadValue(b, 0)
				return err
			},
			Close: func() {},
		})
	}
	return out
}

// E4Channel builds one scenario per channel configuration: codecs, then
// progressively longer stub/binder pipelines — the per-component cost of
// Figure 4's structure.
func E4Channel() []Scenario {
	echoType := types.OpInterface("Echo",
		types.Op("Echo", types.Params(types.P("x", values.TString())),
			types.Term("OK", types.P("x", values.TString()))),
	)
	realm := security.NewRealm()
	realm.AddPrincipal("bench", []byte("bench-secret"))
	policy := security.NewPolicy()
	policy.Allow("bench", "*")

	type variant struct {
		name         string
		codec        wire.Codec
		clientStages []channel.Stage
		serverStages []channel.Stage
		replayGuard  bool
	}
	discard := func(channel.AuditEntry) {}
	variants := []variant{
		{name: "bare/native", codec: wire.Native},
		{name: "bare/canonical", codec: wire.Canonical},
		{name: "replay-binder", codec: wire.Canonical, replayGuard: true},
		{name: "audit-stub", codec: wire.Canonical, replayGuard: true,
			clientStages: []channel.Stage{&channel.AuditStage{Sink: discard}}},
		{name: "security", codec: wire.Canonical, replayGuard: true,
			clientStages: []channel.Stage{&security.SignStage{Principal: "bench", Secret: []byte("bench-secret")}},
			serverStages: []channel.Stage{&security.VerifyStage{Realm: realm, Policy: policy}}},
		{name: "full-pipeline", codec: wire.Canonical, replayGuard: true,
			clientStages: []channel.Stage{
				&channel.AuditStage{Sink: discard},
				&security.SignStage{Principal: "bench", Secret: []byte("bench-secret")},
			},
			serverStages: []channel.Stage{&security.VerifyStage{Realm: realm, Policy: policy}}},
	}

	var out []Scenario
	for i, v := range variants {
		f := newFleet(int64(i + 1))
		l, err := f.net.Listen(naming.Endpoint(fmt.Sprintf("sim://srv%d", i)))
		must(err)
		_, ref, err := f.start(l, channel.ServerConfig{
			Stages:      v.serverStages,
			ReplayGuard: v.replayGuard,
		}, naming.InterfaceID{Nonce: uint64(i + 1)}, echoType, e4Servant{})
		must(err)
		b, err := f.bind(ref, channel.BindConfig{Codec: v.codec, Stages: v.clientStages})
		must(err)
		arg := []values.Value{values.Str("the quick brown fox")}
		ctx := context.Background()
		out = append(out, Scenario{
			Name: v.name,
			Run: func() error {
				term, _, err := b.Invoke(ctx, "Echo", arg)
				if err != nil {
					return err
				}
				if term != "OK" {
					return fmt.Errorf("term = %q", term)
				}
				return nil
			},
			Close: f.close,
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// E5 — Figure 5: node structuring cost

type nopBehavior struct{}

func (nopBehavior) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	return "OK", nil, nil
}

// E5Structure returns scenarios that create a capsule+cluster+object+
// interface column (one full Figure 5 path) per Run, and a
// checkpoint/reactivate cycle.
func E5Structure() []Scenario {
	ifaceType := types.OpInterface("Nop", types.Op("Nop", nil, types.Term("OK")))

	fleetA := newFleet(1)
	nodeA, err := fleetA.nopNode("alpha")
	must(err)
	createScenario := Scenario{
		Name: "create-capsule+cluster+object+interface",
		Run: func() error {
			capsule, err := nodeA.CreateCapsule()
			if err != nil {
				return err
			}
			cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
			if err != nil {
				return err
			}
			obj, err := cluster.CreateObject("nop", values.Null())
			if err != nil {
				return err
			}
			_, err = obj.AddInterface(ifaceType)
			return err
		},
		Close: fleetA.close,
	}

	fleetB := newFleet(1)
	nodeB, err := fleetB.nopNode("beta")
	must(err)
	capsule, err := nodeB.CreateCapsule()
	must(err)
	cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
	must(err)
	for i := 0; i < 16; i++ {
		obj, err := cluster.CreateObject("nop", values.Null())
		must(err)
		_, err = obj.AddInterface(ifaceType)
		must(err)
	}
	cycleScenario := Scenario{
		Name: "checkpoint+deactivate+reactivate/objects=16",
		Run: func() error {
			if _, err := cluster.Checkpoint(); err != nil {
				return err
			}
			if err := cluster.Deactivate(); err != nil {
				return err
			}
			return cluster.Reactivate()
		},
		Close: fleetB.close,
	}
	return []Scenario{createScenario, cycleScenario}
}

// ---------------------------------------------------------------------------
// E6 — the transparency ablation matrix

type e6Counter struct{ n atomic.Int64 }

func (c *e6Counter) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if op == "Inc" {
		d, _ := args[0].AsInt()
		return "OK", []values.Value{values.Int(c.n.Add(d))}, nil
	}
	return "OK", []values.Value{values.Int(c.n.Load())}, nil
}

func (c *e6Counter) CheckpointState() (values.Value, error) { return values.Int(c.n.Load()), nil }
func (c *e6Counter) RestoreState(v values.Value) error {
	n, _ := v.AsInt()
	c.n.Store(n)
	return nil
}

func e6CounterType() *types.Interface {
	return types.OpInterface("Counter",
		types.Op("Inc", types.Params(types.P("d", values.TInt())),
			types.Term("OK", types.P("n", values.TInt()))),
	)
}

// E6Transparency measures invocation cost under each transparency set.
func E6Transparency() []Scenario {
	sets := []struct {
		name string
		req  core.TransparencySet
	}{
		{"none", 0},
		{"access", core.TransparencySet(core.Access)},
		{"access+location+relocation", core.TransparencySet(core.Access | core.Location | core.Relocation)},
		{"access+failure", core.TransparencySet(core.Access | core.Failure)},
		{"all-channel", core.TransparencySet(core.Access | core.Location | core.Relocation | core.Migration | core.Persistence | core.Failure)},
	}
	var out []Scenario
	for i, set := range sets {
		system := odp.NewSystem(int64(i + 1))
		node, err := system.CreateNode("n")
		must(err)
		node.Behaviors().Register("counter", func(values.Value) (engineering.Behavior, error) {
			return &e6Counter{}, nil
		})
		contract := core.Contract{Require: set.req}
		dep, err := system.Deploy(node, core.ObjectTemplate{
			Name:     "counter",
			Behavior: "counter",
			Interfaces: []core.InterfaceDecl{{
				Type:     e6CounterType(),
				Contract: contract,
			}},
		}, values.Null())
		must(err)
		ref, _ := dep.Ref("Counter")
		b, err := system.Bind("client", ref, contract)
		must(err)
		ctx := context.Background()
		arg := []values.Value{values.Int(1)}
		sys, bRef := system, b
		out = append(out, Scenario{
			Name: set.name,
			Run: func() error {
				_, _, err := bRef.Invoke(ctx, "Inc", arg)
				return err
			},
			Close: func() {
				bRef.Close()
				sys.Close()
			},
		})
	}
	// Replication r=1,3,5 through the group proxy.
	for _, r := range []int{1, 3, 5} {
		system := odp.NewSystem(int64(100 + r))
		contract := core.Contract{
			Require:  core.TransparencySet(core.Replication | core.Location | core.Relocation),
			Replicas: r,
		}
		var refs []naming.InterfaceRef
		for i := 0; i < r; i++ {
			node, err := system.CreateNode(fmt.Sprintf("r%d", i))
			must(err)
			node.Behaviors().Register("counter", func(values.Value) (engineering.Behavior, error) {
				return &e6Counter{}, nil
			})
			dep, err := system.Deploy(node, core.ObjectTemplate{
				Name:     "counter",
				Behavior: "counter",
				Interfaces: []core.InterfaceDecl{{
					Type:     e6CounterType(),
					Contract: contract,
				}},
			}, values.Null())
			must(err)
			ref, _ := dep.Ref("Counter")
			refs = append(refs, ref)
		}
		group, err := transparency.Replicate(refs, contract, system.Env("client"))
		must(err)
		ctx := context.Background()
		arg := []values.Value{values.Int(1)}
		sys, g := system, group
		out = append(out, Scenario{
			Name: fmt.Sprintf("replication/r=%d", r),
			Run: func() error {
				_, _, err := g.Invoke(ctx, "Inc", arg)
				return err
			},
			Close: func() {
				g.Close()
				sys.Close()
			},
		})
	}
	return out
}

// E6RelocationRecovery measures how long a live binding takes to recover
// across a migration: the relocation-transparency latency.
func E6RelocationRecovery(samples int) ([]time.Duration, error) {
	f := newFleet(5)
	defer f.close()
	reloc := relocator.New()
	capsules := make([]*engineering.Capsule, 2)
	for i, host := range []string{"m0", "m1"} {
		n, err := f.counterNode(host, reloc)
		if err != nil {
			return nil, err
		}
		if capsules[i], err = n.CreateCapsule(); err != nil {
			return nil, err
		}
	}
	cluster, err := capsules[0].CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		return nil, err
	}
	obj, err := cluster.CreateObject("counter", values.Null())
	if err != nil {
		return nil, err
	}
	ref, err := obj.AddInterface(e6CounterType())
	if err != nil {
		return nil, err
	}
	b, err := f.bind(ref, channel.BindConfig{Locator: reloc, Policy: policy.RetryPolicy{MaxAttempts: 6}})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	arg := []values.Value{values.Int(1)}
	if _, _, err := b.Invoke(ctx, "Inc", arg); err != nil {
		return nil, err
	}
	var out []time.Duration
	at := 0
	for i := 0; i < samples; i++ {
		next := (at + 1) % 2
		nk, err := cluster.MigrateTo(capsules[next])
		if err != nil {
			return nil, err
		}
		cluster = nk
		at = next
		start := time.Now()
		if _, _, err := b.Invoke(ctx, "Inc", arg); err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// e6b is the E6b section: the recovery-latency distribution over 20
// migrations of one bound object.
func e6b(bool, int, time.Duration) ([]Record, string, error) {
	samples, err := E6RelocationRecovery(20)
	if err != nil {
		return nil, "", err
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return []Record{{
		Experiment: "e6b",
		Scenario:   "first-call-after-migration",
		Metrics: map[string]float64{
			"p50_us": float64(samples[len(samples)/2].Microseconds()),
			"p90_us": float64(samples[len(samples)*9/10].Microseconds()),
			"max_us": float64(samples[len(samples)-1].Microseconds()),
		},
	}}, "", nil
}

// E6FailureMasking runs invocations over a lossy link and reports how
// many succeeded with and without failure transparency.
func E6FailureMasking(dropRate float64, calls int) (withRetries, withoutRetries int, err error) {
	run := func(retries int, seed int64) (int, error) {
		f := newFleet(seed)
		defer f.close()
		f.net.SetLink("client", "srv", netsim.LinkProfile{DropRate: dropRate})
		f.net.SetLink("srv", "client", netsim.LinkProfile{DropRate: dropRate})
		l, err := f.net.Listen("sim://srv")
		if err != nil {
			return 0, err
		}
		_, ref, err := f.start(l, channel.ServerConfig{ReplayGuard: true}, naming.InterfaceID{Nonce: 9}, e6CounterType(), &e6Counter{})
		if err != nil {
			return 0, err
		}
		b, err := f.bind(ref, channel.BindConfig{
			Policy: policy.RetryPolicy{MaxAttempts: retries + 1, AttemptTimeout: 10 * time.Millisecond},
		})
		if err != nil {
			return 0, err
		}
		ok := 0
		ctx := context.Background()
		for i := 0; i < calls; i++ {
			if _, _, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(1)}); err == nil {
				ok++
			}
		}
		return ok, nil
	}
	withRetries, err = run(25, 42)
	if err != nil {
		return 0, 0, err
	}
	withoutRetries, err = run(0, 42)
	return withRetries, withoutRetries, err
}

// e6c is the E6c section: 200 calls over a link dropping 30% each way,
// with 25 retries and with none.
func e6c(bool, int, time.Duration) ([]Record, string, error) {
	const drop, calls = 0.3, 200
	withRetries, withoutRetries, err := E6FailureMasking(drop, calls)
	if err != nil {
		return nil, "", err
	}
	return []Record{{
		Experiment: "e6c",
		Scenario:   "failure-masking",
		Params:     map[string]float64{"drop": drop, "calls": calls},
		Metrics: map[string]float64{
			"ok_with_retries": float64(withRetries),
			"ok_no_retries":   float64(withoutRetries),
		},
	}}, "", nil
}

// ---------------------------------------------------------------------------
// E7 — transaction function: 2PC cost vs participants

// E7Transactions returns commit-latency scenarios at increasing
// participant counts.
func E7Transactions() []Scenario {
	var out []Scenario
	for _, parts := range []int{1, 2, 4, 8} {
		coord := transactions.NewCoordinator()
		stores := make([]*transactions.Store, parts)
		for i := range stores {
			stores[i] = transactions.NewStore(fmt.Sprintf("s%d", i), nil)
		}
		ctx := context.Background()
		n := 0
		p := parts
		out = append(out, Scenario{
			Name: fmt.Sprintf("commit/participants=%d", p),
			Run: func() error {
				tx := coord.Begin(ctx)
				n++
				key := fmt.Sprintf("k%d", n%128)
				for _, s := range stores {
					if err := tx.Write(s, key, values.Int(int64(n))); err != nil {
						return err
					}
				}
				return tx.Commit()
			},
			Close: func() {},
		})
	}
	// Abort path.
	coord := transactions.NewCoordinator()
	store := transactions.NewStore("s", nil)
	ctx := context.Background()
	out = append(out, Scenario{
		Name: "abort/participants=1",
		Run: func() error {
			tx := coord.Begin(ctx)
			if err := tx.Write(store, "k", values.Int(1)); err != nil {
				return err
			}
			return tx.Abort()
		},
		Close: func() {},
	})
	return out
}

// ---------------------------------------------------------------------------
// E8 — trader: import cost vs offers and constraint complexity

// E8Trader returns import scenarios over trader populations of different
// sizes and constraint complexities, plus a federated chain.
func E8Trader() []Scenario {
	repo := typerepo.New()
	must(repo.RegisterInterface(bank.TellerType()))
	must(repo.RegisterInterface(bank.ManagerType()))

	populate := func(t *trader.Trader, offers int) {
		for i := 0; i < offers; i++ {
			_, err := t.Export("BankTeller", naming.InterfaceRef{
				ID:       naming.InterfaceID{Nonce: uint64(i + 1)},
				TypeName: "BankTeller",
				Endpoint: "sim://x",
			}, values.Record(
				values.F("queue", values.Int(int64(i%10))),
				values.F("city", values.Str([]string{"brisbane", "perth", "sydney"}[i%3])),
			))
			must(err)
		}
	}
	var out []Scenario
	for _, offers := range []int{10, 100, 1000} {
		t := trader.New(fmt.Sprintf("T%d", offers), repo)
		populate(t, offers)
		tt := t
		out = append(out, Scenario{
			Name: fmt.Sprintf("import/offers=%d/simple", offers),
			Run: func() error {
				got, err := tt.Import(trader.ImportRequest{ServiceType: "BankTeller", Constraint: "queue < 5"})
				if err != nil || len(got) == 0 {
					return fmt.Errorf("import: %d, %v", len(got), err)
				}
				return nil
			},
			Close: func() {},
		})
	}
	complexT := trader.New("TC", repo)
	populate(complexT, 100)
	out = append(out, Scenario{
		Name: "import/offers=100/complex",
		Run: func() error {
			got, err := complexT.Import(trader.ImportRequest{
				ServiceType: "BankTeller",
				Constraint:  "(queue < 5 and city == 'brisbane') or (queue < 2 and not (city == 'perth'))",
				Preference:  trader.Preference{Kind: trader.PrefMin, Expr: "queue * 2 + 1"},
			})
			if err != nil || len(got) == 0 {
				return fmt.Errorf("import: %d, %v", len(got), err)
			}
			return nil
		},
		Close: func() {},
	})
	// Federation chain: hop 0..3.
	chain := make([]*trader.Trader, 4)
	for i := range chain {
		chain[i] = trader.New(fmt.Sprintf("F%d", i), repo)
		if i > 0 {
			chain[i-1].Link("next", chain[i])
		}
	}
	populate(chain[3], 10) // offers live 3 hops away
	for _, hops := range []int{1, 2, 3} {
		h := hops
		out = append(out, Scenario{
			Name: fmt.Sprintf("import/federated/hops=%d", h),
			Run: func() error {
				got, err := chain[0].Import(trader.ImportRequest{
					ServiceType: "BankTeller", MaxHops: h,
				})
				if err != nil {
					return err
				}
				if h < 3 && len(got) != 0 {
					return fmt.Errorf("offers leaked at hops=%d", h)
				}
				if h == 3 && len(got) == 0 {
					return fmt.Errorf("no offers at hops=3")
				}
				return nil
			},
			Close: func() {},
		})
	}
	return out
}
