package transparency

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/relocator"
	"repro/internal/transactions"
	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

func baseEnv() Env {
	return Env{Transport: netsim.New(1)}
}

func TestClientConfigAccess(t *testing.T) {
	cfg, err := ClientConfig(core.Contract{Require: core.TransparencySet(core.Access)}, baseEnv())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Codec != wire.Canonical {
		t.Error("access transparency should select the canonical codec")
	}
	cfg, err = ClientConfig(core.Contract{}, baseEnv())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Codec != wire.Native {
		t.Error("no access transparency should select the native codec")
	}
}

func TestClientConfigLocator(t *testing.T) {
	for _, tr := range []core.Transparency{core.Location, core.Relocation, core.Migration} {
		contract := core.Contract{Require: core.TransparencySet(tr)}
		if _, err := ClientConfig(contract, baseEnv()); !errors.Is(err, ErrNeedLocator) {
			t.Errorf("%v without locator = %v", tr, err)
		}
		env := baseEnv()
		env.Locator = relocator.New()
		cfg, err := ClientConfig(contract, env)
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if cfg.Locator == nil {
			t.Errorf("%v should set the locator", tr)
		}
	}
}

func TestClientConfigFailure(t *testing.T) {
	cfg, err := ClientConfig(core.Contract{Require: core.TransparencySet(core.Failure)}, baseEnv())
	if err != nil {
		t.Fatal(err)
	}
	if want := (policy.RetryPolicy{MaxAttempts: 4, AttemptTimeout: 2 * time.Second}); cfg.Policy != want {
		t.Errorf("failure defaults: policy = %+v, want %+v", cfg.Policy, want)
	}
	cfg, err = ClientConfig(core.Contract{
		Require:    core.TransparencySet(core.Failure),
		MaxRetries: 7,
		MaxLatency: 100 * time.Millisecond,
	}, baseEnv())
	if err != nil {
		t.Fatal(err)
	}
	if want := (policy.RetryPolicy{MaxAttempts: 8, AttemptTimeout: 100 * time.Millisecond}); cfg.Policy != want {
		t.Errorf("explicit: policy = %+v, want %+v", cfg.Policy, want)
	}
	// Latency bound applies even without failure transparency.
	cfg, err = ClientConfig(core.Contract{MaxLatency: 50 * time.Millisecond}, baseEnv())
	if err != nil {
		t.Fatal(err)
	}
	if want := (policy.RetryPolicy{AttemptTimeout: 50 * time.Millisecond}); cfg.Policy != want {
		t.Errorf("latency only: policy = %+v, want %+v", cfg.Policy, want)
	}
	// The environment's policy supplies budget and backoff and may fix the
	// attempt count; what it leaves zero comes from the contract — and
	// without failure transparency it is not applied at all.
	env := baseEnv()
	env.Policy = policy.RetryPolicy{MaxAttempts: 2, Budget: time.Second, BaseBackoff: time.Millisecond}
	cfg, err = ClientConfig(core.Contract{Require: core.TransparencySet(core.Failure), MaxLatency: 50 * time.Millisecond}, env)
	if err != nil {
		t.Fatal(err)
	}
	want := env.Policy
	want.AttemptTimeout = 50 * time.Millisecond
	if cfg.Policy != want {
		t.Errorf("environment policy: policy = %+v, want %+v", cfg.Policy, want)
	}
	cfg, err = ClientConfig(core.Contract{}, env)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != (policy.RetryPolicy{}) {
		t.Errorf("no failure transparency: policy = %+v, want zero", cfg.Policy)
	}
}

func TestClientConfigSecurity(t *testing.T) {
	if _, err := ClientConfig(core.Contract{Security: core.SecurityAuthenticated}, baseEnv()); !errors.Is(err, ErrNeedCredseed) {
		t.Errorf("missing creds = %v", err)
	}
	env := baseEnv()
	env.Principal = "alice"
	env.Secret = []byte("s")
	cfg, err := ClientConfig(core.Contract{Security: core.SecurityAuthenticated}, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := stageTypes(cfg.Stages); got != "[*security.SignStage]" {
		t.Errorf("stages = %s", got)
	}
	cfg, err = ClientConfig(core.Contract{Security: core.SecurityAudited}, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := stageTypes(cfg.Stages); got != "[*channel.AuditStage *security.SignStage]" {
		t.Errorf("stages = %s", got)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := ClientConfig(core.Contract{MaxLatency: -1}, baseEnv()); !errors.Is(err, core.ErrBadContract) {
		t.Errorf("bad contract = %v", err)
	}
	if _, err := ClientConfig(core.Contract{}, Env{}); !errors.Is(err, ErrNeedTransport) {
		t.Errorf("no transport = %v", err)
	}
}

// stageTypes renders a pipeline as its stages' types, in order.
func stageTypes(stages []channel.Stage) string {
	out := make([]string, len(stages))
	for i, s := range stages {
		out[i] = fmt.Sprintf("%T", s)
	}
	return fmt.Sprint(out)
}

func TestClusterOptions(t *testing.T) {
	if !ClusterOptions(core.Contract{Require: core.TransparencySet(core.Persistence)}).AutoReactivate {
		t.Error("persistence should enable auto-reactivation")
	}
	if ClusterOptions(core.Contract{}).AutoReactivate {
		t.Error("no persistence should not auto-reactivate")
	}
}

// ---------------------------------------------------------------------------
// end-to-end: contract-driven binding against a real deployment

type counter struct{ n int64 }

func (c *counter) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if op == "Inc" {
		d, _ := args[0].AsInt()
		c.n += d
	}
	return "OK", []values.Value{values.Int(c.n)}, nil
}

func counterIface() *types.Interface {
	return types.OpInterface("Counter",
		types.Op("Inc", types.Params(types.P("d", values.TInt())), types.Term("OK", types.P("n", values.TInt()))),
		types.Op("Get", nil, types.Term("OK", types.P("n", values.TInt()))),
	)
}

func TestBindWithContractEndToEnd(t *testing.T) {
	net := netsim.New(1)
	reloc := relocator.New()
	node, err := engineering.NewNode(engineering.NodeConfig{
		ID: "alpha", Endpoint: "sim://alpha", Transport: net.From("alpha"), Locations: reloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.Behaviors().Register("counter", func(values.Value) (engineering.Behavior, error) { return &counter{}, nil })
	capsule, _ := node.CreateCapsule()
	contract := core.Contract{
		Require: core.TransparencySet(core.Access | core.Location | core.Relocation | core.Failure | core.Persistence),
	}
	cluster, err := capsule.CreateCluster(ClusterOptions(contract))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cluster.CreateObject("counter", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := obj.AddInterface(counterIface())
	if err != nil {
		t.Fatal(err)
	}

	// Location transparency: bind with a deliberately wrong endpoint hint;
	// the configurator resolves through the relocator.
	staleRef := ref
	staleRef.Endpoint = "sim://nowhere"
	env := Env{Transport: net.From("client"), Locator: reloc, Type: counterIface()}
	b, err := Bind(staleRef, contract, env)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	term, res, err := b.Invoke(context.Background(), "Inc", []values.Value{values.Int(5)})
	if err != nil || term != "OK" {
		t.Fatalf("Invoke = %q, %v, %v", term, res, err)
	}
	if n, _ := res[0].AsInt(); n != 5 {
		t.Errorf("n = %d", n)
	}
}

func TestReplicateEndToEnd(t *testing.T) {
	net := netsim.New(2)
	reloc := relocator.New()
	contract := core.Contract{
		Require:  core.TransparencySet(core.Replication | core.Relocation),
		Replicas: 3,
	}
	var refs []naming.InterfaceRef
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("r%d", i)
		node, err := engineering.NewNode(engineering.NodeConfig{
			ID: naming.NodeID(name), Endpoint: naming.Endpoint("sim://" + name),
			Transport: net.From(name), Locations: reloc,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		node.Behaviors().Register("counter", func(values.Value) (engineering.Behavior, error) { return &counter{}, nil })
		capsule, _ := node.CreateCapsule()
		cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := cluster.CreateObject("counter", values.Null())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := obj.AddInterface(counterIface())
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	env := Env{Transport: net.From("client"), Locator: reloc}
	// Too few replicas is an error.
	if _, err := Replicate(refs[:2], contract, env); err == nil {
		t.Error("undersized replica set should fail")
	}
	g, err := Replicate(refs, contract, env)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Size() != 3 {
		t.Errorf("group size = %d", g.Size())
	}
	term, res, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(2)})
	if err != nil || term != "OK" {
		t.Fatalf("group invoke = %q, %v, %v", term, res, err)
	}
	if n, _ := res[0].AsInt(); n != 2 {
		t.Errorf("replicated n = %d", n)
	}
	var _ = coordination.GroupStats{} // package participates in this test's contract
}

// ---------------------------------------------------------------------------
// transaction transparency refinement

// txCounter keeps its state in a transactional store and reports every
// read and write through the ambient transaction — the refinement of
// Section 9.3.
type txCounter struct {
	store *transactions.Store
}

func (c *txCounter) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	tx := TxFrom(ctx)
	if tx == nil {
		return "", nil, errors.New("no ambient transaction")
	}
	cur := int64(0)
	if v, err := tx.Read(c.store, "n"); err == nil {
		cur, _ = v.AsInt()
	}
	switch op {
	case "Inc":
		d, _ := args[0].AsInt()
		cur += d
		if err := tx.Write(c.store, "n", values.Int(cur)); err != nil {
			return "", nil, err
		}
		if cur < 0 {
			// Business rule: counters may not go negative — the Error
			// termination rolls the write back.
			return "ErrorNegative", nil, nil
		}
		return "OK", []values.Value{values.Int(cur)}, nil
	case "Get":
		return "OK", []values.Value{values.Int(cur)}, nil
	}
	return "", nil, fmt.Errorf("unknown op %s", op)
}

func TestTransactionalRefinement(t *testing.T) {
	coord := transactions.NewCoordinator()
	store := transactions.NewStore("counters", nil)
	h := Transactional(coord, &txCounter{store: store})
	ctx := context.Background()

	term, res, err := h.Invoke(ctx, "Inc", []values.Value{values.Int(10)})
	if err != nil || term != "OK" {
		t.Fatalf("Inc = %q, %v, %v", term, res, err)
	}
	// Committed: visible to a fresh transaction.
	if v, ok := store.Snapshot()["n"]; !ok || !v.Equal(values.Int(10)) {
		t.Errorf("committed state = %v", store.Snapshot())
	}

	// An Error* termination aborts: the write must not stick.
	term, _, err = h.Invoke(ctx, "Inc", []values.Value{values.Int(-100)})
	if err != nil || term != "ErrorNegative" {
		t.Fatalf("negative Inc = %q, %v", term, err)
	}
	if v := store.Snapshot()["n"]; !v.Equal(values.Int(10)) {
		t.Errorf("state after aborted termination = %v, want 10", v)
	}

	// A handler error also aborts and surfaces.
	_, _, err = h.Invoke(ctx, "Nope", nil)
	if err == nil {
		t.Error("unknown op should error")
	}
	commits, aborts := coord.Stats()
	if commits != 1 || aborts != 2 {
		t.Errorf("coordinator stats = %d commits, %d aborts", commits, aborts)
	}
}

func TestTxFromWithoutTransaction(t *testing.T) {
	if TxFrom(context.Background()) != nil {
		t.Error("TxFrom on bare context should be nil")
	}
	coord := transactions.NewCoordinator()
	tx := coord.Begin(context.Background())
	defer tx.Abort()
	if TxFrom(tx.Context()) != tx {
		t.Error("TxFrom(tx.Context()) is not the transaction")
	}
}
