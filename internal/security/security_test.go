package security

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

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
	mac := func(m *wire.Message) string {
		b, err := computeMAC(secret, "alice", m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if mac(m1) == mac(m2) {
		t.Error("MACs for different operations must differ")
	}
	m3 := *m1
	m3.Seq = 2
	if mac(&m3) == mac(m1) {
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

// kindServant counts the deliveries it sees by request kind: an
// interrogation or announcement by its operation name ("Call", "OneWay"),
// a single flow element as "FlowMsg", and every phase of a flow stream
// (open, elements, close) as "FlowBatch".
type kindServant struct {
	mu   sync.Mutex
	seen map[string]int
}

func (s *kindServant) see(kind string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[kind]++
}

func (s *kindServant) count(kind string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[kind]
}

func (s *kindServant) Invoke(_ context.Context, op string, _ []values.Value) (string, []values.Value, error) {
	s.see(op)
	return "OK", nil, nil
}

func (s *kindServant) Flow(string, values.Value) { s.see("FlowMsg") }

func (s *kindServant) StreamBatch(channel.StreamBatch) { s.see("FlowBatch") }

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestEveryRequestKindIsVerified: every kind of request a server accepts —
// a call, an announcement, a flow element and a flow stream's frames —
// passes the verifier. Without a credential each frame is refused and
// counted once in the server's Errors, and the servant sees nothing; the same
// frames from a signing client are delivered, with no error. Credit grants
// travel from server to client and never reach a server's inbound stages.
func TestEveryRequestKindIsVerified(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		kind   string
		frames int // frames the request sends
		send   func(b *channel.Binding) error
	}{
		{"Call", 1, func(b *channel.Binding) error { _, _, err := b.Invoke(ctx, "Call", nil); return err }},
		{"OneWay", 1, func(b *channel.Binding) error { return b.Announce(ctx, "OneWay", nil) }},
		{"FlowMsg", 1, func(b *channel.Binding) error { return b.Flow(ctx, "audio", values.Int(1)) }},
		{"FlowBatch", 3, func(b *channel.Binding) error {
			fs, err := b.OpenFlowStream(ctx, "video", func(uint64, uint64) {}, func(error) {})
			if err != nil {
				return err
			}
			if err := fs.SendBatch([]values.Value{values.Int(1), values.Int(2)}); err != nil {
				return err
			}
			return fs.Close()
		}},
	} {
		t.Run(c.kind, func(t *testing.T) {
			net, realm, policy := netsim.New(1), NewRealm(), NewPolicy()
			realm.AddPrincipal("alice", []byte("alice-secret"))
			policy.Allow("alice", "*")
			l, err := net.Listen("sim://server")
			if err != nil {
				t.Fatal(err)
			}
			srv := channel.NewServer(l, channel.ServerConfig{Stages: []channel.Stage{&VerifyStage{Realm: realm, Policy: policy}}})
			servant := &kindServant{seen: map[string]int{}}
			id := naming.InterfaceID{Nonce: 7}
			if err := srv.Register(id, nil, servant); err != nil {
				t.Fatal(err)
			}
			srv.Start()
			t.Cleanup(func() { srv.Close() })
			bind := func(stages ...channel.Stage) *channel.Binding {
				b, err := channel.Bind(naming.InterfaceRef{ID: id, Endpoint: "sim://server"}, channel.BindConfig{Transport: net, Stages: stages})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.Close() })
				return b
			}

			if err := c.send(bind()); err != nil && !channel.IsRemote(err, channel.CodeAuth) {
				t.Fatalf("credential-less %s: %v", c.kind, err)
			}
			eventually(t, "the server refuses every frame", func() bool { return srv.Stats().Errors >= uint64(c.frames) })
			if got := srv.Stats().Errors; got != uint64(c.frames) {
				t.Errorf("credential-less %s: %d errors, want %d", c.kind, got, c.frames)
			}
			if n := servant.count(c.kind); n != 0 {
				t.Errorf("credential-less %s reached the servant %d times", c.kind, n)
			}

			if err := c.send(bind(&SignStage{Principal: "alice", Secret: []byte("alice-secret")})); err != nil {
				t.Fatalf("signed %s: %v", c.kind, err)
			}
			eventually(t, "the servant sees every signed frame", func() bool { return servant.count(c.kind) >= c.frames })
			if n := servant.count(c.kind); n != c.frames {
				t.Errorf("signed %s reached the servant %d times, want %d", c.kind, n, c.frames)
			}
			if got := srv.Stats().Errors; got != uint64(c.frames) {
				t.Errorf("signed %s: %d errors, want none beyond the %d refused", c.kind, got-uint64(c.frames), c.frames)
			}
		})
	}
}

// tamperStage rewrites each outbound request after it is signed: it stands
// between the signer and the wire, where a man in the middle would.
type tamperStage func(m *wire.Message)

func (f tamperStage) Process(dir channel.Direction, m *wire.Message) error {
	if dir == channel.Outbound {
		f(m)
	}
	return nil
}

// logServant records each delivery in order: a call by its operation and
// its first argument, a stream phase by its name and sequence position.
type logServant struct {
	mu  sync.Mutex
	log []string
}

func (s *logServant) add(e string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, e)
}

func (s *logServant) seen() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.log)
}

func (s *logServant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	s.add(fmt.Sprintf("%s(%v)", op, args))
	return "OK", nil, nil
}

func (s *logServant) StreamBatch(b channel.StreamBatch) {
	s.add(fmt.Sprintf("%s@%d", map[channel.StreamPhase]string{
		channel.StreamOpen: "open", channel.StreamElems: "elems", channel.StreamClose: "close"}[b.Phase], b.Seq))
}

// TestCredentialBindsThePayload: a credential covers what a request says,
// not only whom it is from and where it goes. Each signed request below is
// tampered with between the signer and the wire — a withdrawal's amount
// raised, a stream's open credential replayed on its end-of-stream frame,
// an element batch's termination turned into an end of stream. The
// tampered frame is refused with ERR_AUTH and counted once in the server's
// Errors, and the servant sees every other frame and nothing of that one.
func TestCredentialBindsThePayload(t *testing.T) {
	ctx := context.Background()
	openStream := func(b *channel.Binding) (*channel.FlowStream, error) {
		return b.OpenFlowStream(ctx, "video", func(uint64, uint64) {}, func(error) {})
	}
	var openAuth []byte
	for _, c := range []struct {
		name   string
		send   func(b *channel.Binding) error
		tamper func(m *wire.Message)
		want   []string // what the servant sees
	}{
		{"argument", func(b *channel.Binding) error {
			_, _, err := b.Invoke(ctx, "Withdraw", []values.Value{values.Int(5)})
			if !channel.IsRemote(err, channel.CodeAuth) {
				return fmt.Errorf("tampered Withdraw = %v, want ERR_AUTH", err)
			}
			return nil
		}, func(m *wire.Message) {
			m.Args = []values.Value{values.Int(5000)}
		}, nil},
		{"replayed open", func(b *channel.Binding) error {
			fs, err := openStream(b)
			if err != nil {
				return err
			}
			return fs.Close()
		}, func(m *wire.Message) {
			switch m.Termination {
			case wire.StreamOpenMark:
				openAuth = slices.Clone(m.Auth)
			case wire.StreamEOSMark:
				m.Auth = openAuth
			}
		}, []string{"open@0"}},
		{"termination", func(b *channel.Binding) error {
			fs, err := openStream(b)
			if err != nil {
				return err
			}
			if err := fs.SendBatch([]values.Value{values.Int(1), values.Int(2)}); err != nil {
				return err
			}
			return fs.Close()
		}, func(m *wire.Message) {
			if m.Kind == wire.FlowBatch && m.Termination == "" {
				m.Termination = wire.StreamEOSMark
			}
		}, []string{"open@0", "close@2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, realm, policy := netsim.New(1), NewRealm(), NewPolicy()
			realm.AddPrincipal("alice", []byte("alice-secret"))
			policy.Allow("alice", "*")
			l, err := net.Listen("sim://server")
			if err != nil {
				t.Fatal(err)
			}
			srv := channel.NewServer(l, channel.ServerConfig{Stages: []channel.Stage{&VerifyStage{Realm: realm, Policy: policy}}})
			servant := &logServant{}
			id := naming.InterfaceID{Nonce: 7}
			if err := srv.Register(id, nil, servant); err != nil {
				t.Fatal(err)
			}
			srv.Start()
			t.Cleanup(func() { srv.Close() })
			b, err := channel.Bind(naming.InterfaceRef{ID: id, Endpoint: "sim://server"}, channel.BindConfig{Transport: net,
				Stages: []channel.Stage{&SignStage{Principal: "alice", Secret: []byte("alice-secret")}, tamperStage(c.tamper)}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })

			if err := c.send(b); err != nil {
				t.Fatal(err)
			}
			eventually(t, "the server refuses the tampered frame", func() bool { return srv.Stats().Errors >= 1 })
			eventually(t, "the servant sees every other frame", func() bool { return len(servant.seen()) >= len(c.want) })
			if got := srv.Stats().Errors; got != 1 {
				t.Errorf("%d errors, want 1", got)
			}
			if got := servant.seen(); !slices.Equal(got, c.want) {
				t.Errorf("the servant saw %q, want %q", got, c.want)
			}
		})
	}
}
