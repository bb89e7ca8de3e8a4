package security

import (
	"context"
	"testing"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

func echoType() *types.Interface {
	return types.OpInterface("Echo",
		types.Op("Echo", types.Params(types.P("x", values.TString())), types.Term("OK", types.P("x", values.TString()))),
		types.Op("Admin", nil, types.Term("OK")),
	)
}

type echoServant struct{}

func (echoServant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if op == "Admin" {
		return "OK", nil, nil
	}
	return "OK", []values.Value{args[0]}, nil
}

type secureEnv struct {
	net    *netsim.Network
	server *channel.Server
	realm  *Realm
	policy *Policy
	audit  *AuditLog
	ref    naming.InterfaceRef
}

func newSecureEnv(t *testing.T) *secureEnv {
	t.Helper()
	env := &secureEnv{
		net:    netsim.New(1),
		realm:  NewRealm(),
		policy: NewPolicy(),
		audit:  &AuditLog{},
	}
	env.realm.AddPrincipal("alice", []byte("alice-secret"))
	env.realm.AddPrincipal("mallory", []byte("mallory-secret"))
	env.policy.Allow("alice", "Echo")

	l, err := env.net.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	env.server = channel.NewServer(l, channel.ServerConfig{
		ReplayGuard: true,
		Stages: []channel.Stage{
			&VerifyStage{Realm: env.realm, Policy: env.policy, Audit: env.audit.Record},
		},
	})
	id := naming.InterfaceID{Nonce: 1}
	if err := env.server.Register(id, echoType(), echoServant{}); err != nil {
		t.Fatal(err)
	}
	env.server.Start()
	t.Cleanup(func() { env.server.Close() })
	env.ref = naming.InterfaceRef{ID: id, TypeName: "Echo", Endpoint: "sim://server"}
	return env
}

// bindAs binds as principal, signing with secret behind the stages of front.
func (e *secureEnv) bindAs(t *testing.T, principal string, secret []byte, front ...channel.Stage) *channel.Binding {
	t.Helper()
	b, err := channel.Bind(e.ref, channel.BindConfig{
		Transport: e.net,
		Stages:    append(front, &SignStage{Principal: principal, Secret: secret}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestAuthenticatedInvocation drives the whole channel of Figure 4: an
// audit stub ahead of the signer at the client, the verifier behind the
// replay guard at the server.
func TestAuthenticatedInvocation(t *testing.T) {
	env := newSecureEnv(t)
	stub := &channel.MemoryAudit{}
	b := env.bindAs(t, "alice", []byte("alice-secret"), &channel.AuditStage{Sink: stub.Record})
	term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("hi")})
	if err != nil || term != "OK" {
		t.Fatalf("Invoke = %q, %v, %v", term, res, err)
	}
	if es := stub.Entries(); len(es) != 2 {
		t.Errorf("audit stub = %+v, want the call and its reply", es)
	}
	ds := env.audit.Decisions()
	if len(ds) != 1 || !ds[0].Allowed || ds[0].Principal != "alice" || ds[0].Operation != "Echo" {
		t.Errorf("audit = %+v", ds)
	}
}

// TestChannelCompositions builds the channel of Figure 4 one component at
// a time, from a bare binding under either codec to the full pipeline: at
// every step the echo comes back intact, the audit stub sees each call and
// its reply, and the verifier decides each call.
func TestChannelCompositions(t *testing.T) {
	realm, policy := NewRealm(), NewPolicy()
	realm.AddPrincipal("alice", []byte("alice-secret"))
	policy.Allow("alice", "Echo")
	for i, c := range []struct {
		name          string
		codec         wire.Codec
		guard         bool
		audit, secure bool
	}{
		{name: "bare/native", codec: wire.Native},
		{name: "bare/canonical", codec: wire.Canonical},
		{name: "replay-binder", codec: wire.Canonical, guard: true},
		{name: "audit-stub", codec: wire.Canonical, guard: true, audit: true},
		{name: "security", codec: wire.Canonical, guard: true, secure: true},
		{name: "full-pipeline", codec: wire.Canonical, guard: true, audit: true, secure: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := netsim.New(int64(i + 1))
			l, err := net.Listen("sim://server")
			if err != nil {
				t.Fatal(err)
			}
			scfg, bcfg := channel.ServerConfig{ReplayGuard: c.guard}, channel.BindConfig{Transport: net, Codec: c.codec}
			stub, decisions := &channel.MemoryAudit{}, &AuditLog{}
			if c.audit {
				bcfg.Stages = append(bcfg.Stages, &channel.AuditStage{Sink: stub.Record})
			}
			if c.secure {
				bcfg.Stages = append(bcfg.Stages, &SignStage{Principal: "alice", Secret: []byte("alice-secret")})
				scfg.Stages = []channel.Stage{&VerifyStage{Realm: realm, Policy: policy, Audit: decisions.Record}}
			}
			server := channel.NewServer(l, scfg)
			id := naming.InterfaceID{Nonce: 1}
			if err := server.Register(id, echoType(), echoServant{}); err != nil {
				t.Fatal(err)
			}
			server.Start()
			t.Cleanup(func() { server.Close() })
			b, err := channel.Bind(naming.InterfaceRef{ID: id, TypeName: "Echo", Endpoint: "sim://server"}, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			const calls = 3
			for i := 0; i < calls; i++ {
				term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("the quick brown fox")})
				if err != nil || term != "OK" || len(res) != 1 || !res[0].Equal(values.Str("the quick brown fox")) {
					t.Fatalf("Echo = %q %v, %v", term, res, err)
				}
			}
			audited, decided := 0, 0
			if c.audit {
				audited = 2 * calls
			}
			if c.secure {
				decided = calls
			}
			if n := len(stub.Entries()); n != audited {
				t.Errorf("audit stub saw %d messages, want %d", n, audited)
			}
			if n := len(decisions.Decisions()); n != decided {
				t.Errorf("verifier decided %d calls, want %d", n, decided)
			}
		})
	}
}

func TestMissingCredentialRejected(t *testing.T) {
	env := newSecureEnv(t)
	b, err := channel.Bind(env.ref, channel.BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, _, err = b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")})
	if !channel.IsRemote(err, channel.CodeAuth) {
		t.Errorf("err = %v", err)
	}
}

func TestWrongSecretRejected(t *testing.T) {
	env := newSecureEnv(t)
	b := env.bindAs(t, "alice", []byte("wrong"))
	_, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")})
	if !channel.IsRemote(err, channel.CodeAuth) {
		t.Errorf("err = %v", err)
	}
	ds := env.audit.Decisions()
	if len(ds) != 1 || ds[0].Allowed || ds[0].Reason != "bad credential" {
		t.Errorf("audit = %+v", ds)
	}
}

func TestUnknownPrincipalRejected(t *testing.T) {
	env := newSecureEnv(t)
	b := env.bindAs(t, "eve", []byte("whatever"))
	_, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")})
	if !channel.IsRemote(err, channel.CodeAuth) {
		t.Errorf("err = %v", err)
	}
}

func TestPolicyDeniesUnauthorizedOperation(t *testing.T) {
	env := newSecureEnv(t)
	// mallory authenticates fine but has no rights.
	b := env.bindAs(t, "mallory", []byte("mallory-secret"))
	_, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")})
	if !channel.IsRemote(err, channel.CodeAuth) {
		t.Errorf("err = %v", err)
	}
	// alice may Echo but not Admin.
	ba := env.bindAs(t, "alice", []byte("alice-secret"))
	if _, _, err := ba.Invoke(context.Background(), "Admin", nil); !channel.IsRemote(err, channel.CodeAuth) {
		t.Errorf("Admin = %v", err)
	}
	// Grant, call, revoke, call.
	env.policy.Allow("alice", "Admin")
	if _, _, err := ba.Invoke(context.Background(), "Admin", nil); err != nil {
		t.Errorf("Admin after grant = %v", err)
	}
	env.policy.Revoke("alice", "Admin")
	if _, _, err := ba.Invoke(context.Background(), "Admin", nil); !channel.IsRemote(err, channel.CodeAuth) {
		t.Errorf("Admin after revoke = %v", err)
	}
}

func TestWildcardPolicy(t *testing.T) {
	p := NewPolicy()
	p.Allow("root", "*")
	if !p.Allowed("root", "Anything") {
		t.Error("wildcard should allow")
	}
	if p.Allowed("other", "Anything") {
		t.Error("unknown principal should be denied")
	}
	p.Revoke("root", "*")
	if p.Allowed("root", "Anything") {
		t.Error("revoked wildcard should deny")
	}
	p.Revoke("ghost", "x") // no-op
}

func TestRevokedPrincipal(t *testing.T) {
	env := newSecureEnv(t)
	b := env.bindAs(t, "alice", []byte("alice-secret"))
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); err != nil {
		t.Fatal(err)
	}
	env.realm.RemovePrincipal("alice")
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); !channel.IsRemote(err, channel.CodeAuth) {
		t.Errorf("after revocation = %v", err)
	}
}

func TestCredentialBoundToMessage(t *testing.T) {
	// A credential lifted from one message must not authenticate another
	// operation: the MAC covers target, operation, binding and sequence.
	secret := []byte("alice-secret")
	m1 := &wire.Message{Kind: wire.Call, Operation: "Echo", BindingID: 1, Seq: 1, Correlation: 1}
	m2 := &wire.Message{Kind: wire.Call, Operation: "Admin", BindingID: 1, Seq: 1, Correlation: 1}
	mac1 := computeMAC(secret, "alice", m1)
	mac2 := computeMAC(secret, "alice", m2)
	if string(mac1) == string(mac2) {
		t.Error("MACs for different operations must differ")
	}
	m3 := *m1
	m3.Seq = 2
	if string(computeMAC(secret, "alice", &m3)) == string(mac1) {
		t.Error("MACs for different sequence numbers must differ")
	}
}

func TestDecodeCredentialErrors(t *testing.T) {
	if _, _, err := decodeCredential(nil); err == nil {
		t.Error("nil credential should fail")
	}
	if _, _, err := decodeCredential([]byte{0, 5, 'a'}); err == nil {
		t.Error("truncated credential should fail")
	}
	cred := encodeCredential("alice", make([]byte, macSize))
	if p, mac, err := decodeCredential(cred); err != nil || p != "alice" || len(mac) != macSize {
		t.Errorf("round trip = %q, %d, %v", p, len(mac), err)
	}
}

func TestVerifyStagePassesRepliesThrough(t *testing.T) {
	s := &VerifyStage{Realm: NewRealm(), Policy: NewPolicy()}
	reply := &wire.Message{Kind: wire.Reply}
	if err := s.Process(channel.Inbound, reply); err != nil {
		t.Errorf("reply should pass: %v", err)
	}
	if err := s.Process(channel.Outbound, &wire.Message{Kind: wire.Call}); err != nil {
		t.Errorf("outbound should pass: %v", err)
	}
}
