// The grand-tour integration test: one scenario exercising every major
// subsystem together — a secured, audited, transactional bank branch that
// migrates between nodes while authenticated customers keep using it, with
// checkpoints guarding against node loss. This is the
// repository's answer to "does the whole reference model compose?".
package repro_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bank"
	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/relocator"
	"repro/internal/security"
	"repro/internal/trader"
	"repro/internal/transactions"
	"repro/internal/transparency"
	"repro/internal/typerepo"
	"repro/internal/values"
)

func TestGrandTour(t *testing.T) {
	net := netsim.New(2026)
	reloc := relocator.New()
	repo := typerepo.New()
	tr := trader.New("federation-root", repo)

	// Security domain: one realm and policy shared by both nodes.
	realm := security.NewRealm()
	realm.AddPrincipal("alice", []byte("alice-secret"))
	realm.AddPrincipal("mallory", []byte("mallory-secret"))
	policy := security.NewPolicy()
	for _, op := range []string{"Deposit", "Withdraw", "Balance", "CreateAccount", "ResetDay"} {
		policy.Allow("alice", op)
	}
	audit := &security.AuditLog{}
	serverCfg := channel.ServerConfig{ReplayGuard: true, Stages: []channel.Stage{
		&security.VerifyStage{Realm: realm, Policy: policy, Audit: audit.Record},
	}}

	// Two nodes sharing the branch's transactional store (a real deployment
	// would recover it from the durable WAL; TestDurableStoreSurvivesRestart
	// covers that path).
	coord := transactions.NewCoordinator()
	store := transactions.NewStore("branch", nil)
	mkNode := func(name string) *engineering.Node {
		n, err := engineering.NewNode(engineering.NodeConfig{
			ID:        naming.NodeID(name),
			Endpoint:  naming.Endpoint("sim://" + name),
			Transport: net.From(name),
			Locations: reloc,
			Server:    serverCfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		bank.RegisterBehavior(n.Behaviors(), coord, store)
		return n
	}
	alphaNode := mkNode("alpha")
	betaNode := mkNode("beta")

	// Deploy the branch on alpha and advertise it.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(repo.RegisterInterface(bank.TellerType()))
	must(repo.RegisterInterface(bank.ManagerType()))
	must(repo.RegisterInterface(bank.LoansOfficerType()))

	capsule, err := alphaNode.CreateCapsule()
	must(err)
	cluster, err := capsule.CreateCluster(engineering.ClusterOptions{AutoReactivate: true})
	must(err)
	obj, err := cluster.CreateObject("bank.branch", values.Null())
	must(err)
	tellerRef, err := obj.AddInterface(bank.TellerType())
	must(err)
	managerRef, err := obj.AddInterface(bank.ManagerType())
	must(err)
	_, err = tr.Export("BankTeller", tellerRef, values.Record(values.F("city", values.Str("brisbane"))))
	must(err)
	_, err = tr.Export("BankManager", managerRef, values.Record(values.F("city", values.Str("brisbane"))))
	must(err)

	// Checkpoints guard the branch.
	cs := coordination.NewCheckpointStore()

	// Alice binds through the full contract: access + location + relocation
	// + failure + authenticated-and-audited security.
	contract := core.Contract{
		Require:  core.TransparencySet(core.Access | core.Location | core.Relocation | core.Failure),
		Security: core.SecurityAudited,
	}
	clientAudit := &channel.MemoryAudit{}
	sessions := channel.NewSessionManager(net.From("alice-laptop"))
	defer sessions.Close()
	env := transparency.Env{
		Sessions:  sessions,
		Locator:   reloc,
		Principal: "alice",
		Secret:    []byte("alice-secret"),
		AuditSink: clientAudit.Record,
	}

	// Trade, then bind.
	offers, err := tr.Import(trader.ImportRequest{ServiceType: "BankManager", Constraint: "city == 'brisbane'"})
	must(err)
	if len(offers) != 1 {
		t.Fatalf("offers = %d", len(offers))
	}
	manager, err := transparency.Bind(offers[0].Ref, contract, env)
	must(err)
	defer manager.Close()

	ctx := context.Background()
	term, res, err := manager.Invoke(ctx, "CreateAccount", []values.Value{values.Str("alice")})
	must(err)
	if term != "OK" {
		t.Fatalf("CreateAccount = %q", term)
	}
	acct, _ := res[0].AsString()
	if term, _, err = manager.Invoke(ctx, "Deposit",
		[]values.Value{values.Str("alice"), values.Str(acct), values.Int(1000)}); err != nil || term != "OK" {
		t.Fatalf("Deposit = %q, %v", term, err)
	}

	// Mallory authenticates but is not authorised: the policy denies her.
	malloryEnv := env
	malloryEnv.Principal = "mallory"
	malloryEnv.Secret = []byte("mallory-secret")
	malloryEnv.AuditSink = func(channel.AuditEntry) {}
	mb, err := transparency.Bind(offers[0].Ref, contract, malloryEnv)
	must(err)
	defer mb.Close()
	if _, _, err := mb.Invoke(ctx, "Deposit",
		[]values.Value{values.Str("m"), values.Str(acct), values.Int(1)}); !channel.IsRemote(err, channel.CodeAuth) {
		t.Fatalf("mallory deposit = %v", err)
	}

	// A recovery point, taken again through the state changes below: a
	// deactivated cluster's checkpoint is its deactivation checkpoint, and
	// one that migrated away has none, so no recovery point is overwritten
	// with an empty one.
	must(coordination.CheckpointNow(cluster, cs))
	// The branch deactivates (resource pressure); alice's next call
	// transparently reactivates it — persistence transparency.
	must(cluster.Deactivate())
	must(coordination.CheckpointNow(cluster, cs))
	if term, _, err = manager.Invoke(ctx, "Balance",
		[]values.Value{values.Str("alice"), values.Str(acct)}); err != nil || term != "OK" {
		t.Fatalf("Balance during deactivation = %q, %v", term, err)
	}

	// The branch migrates to beta under alice's feet — relocation
	// transparency keeps her binding alive.
	capsuleB, err := betaNode.CreateCapsule()
	must(err)
	if _, err := cluster.MigrateTo(capsuleB); err != nil {
		t.Fatal(err)
	}
	term, res, err = manager.Invoke(ctx, "Withdraw",
		[]values.Value{values.Str("alice"), values.Str(acct), values.Int(400)})
	must(err)
	if term != "OK" {
		t.Fatalf("post-migration Withdraw = %q", term)
	}
	if n, _ := res[0].AsInt(); n != 600 {
		t.Errorf("balance = %d", n)
	}
	if manager.Stats().Relocations == 0 {
		t.Error("binding should have relocated")
	}
	if err := coordination.CheckpointNow(cluster, cs); !errors.Is(err, engineering.ErrNoSuchCluster) {
		t.Errorf("checkpoint of the cluster that migrated away = %v, want ErrNoSuchCluster", err)
	}

	// The daily limit still binds across all that churn.
	if term, _, _ = manager.Invoke(ctx, "Withdraw",
		[]values.Value{values.Str("alice"), values.Str(acct), values.Int(200)}); term != "NotToday" {
		t.Errorf("over-limit withdrawal = %q", term)
	}

	// Audit trails exist at both ends: the client stub recorded operations,
	// the server recorded access decisions including mallory's denial.
	if len(clientAudit.Entries()) == 0 {
		t.Error("client audit empty")
	}
	denied := 0
	for _, d := range audit.Decisions() {
		if !d.Allowed {
			denied++
		}
	}
	if denied == 0 {
		t.Error("server audit should show mallory's denial")
	}
	// And the checkpoint store holds both recovery points.
	if cs.Saves() != 2 {
		t.Errorf("checkpoint store saves = %d, want 2", cs.Saves())
	}
}
