package channel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

func echoType() *types.Interface {
	return types.OpInterface("Echo",
		types.Op("Echo",
			types.Params(types.P("x", values.TString())),
			types.Term("OK", types.P("x", values.TString())),
		),
		types.Op("Add",
			types.Params(types.P("a", values.TInt()), types.P("b", values.TInt())),
			types.Term("OK", types.P("sum", values.TInt())),
			types.Term("Negative", types.P("reason", values.TString())),
		),
		types.Announce("Notify", types.P("msg", values.TString())),
	)
}

// echoServant implements Handler, FlowReceiver and SignalReceiver.
type echoServant struct {
	mu       sync.Mutex
	notified []string
	flows    []values.Value
	signals  []string
	invoked  int
}

func (e *echoServant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	e.mu.Lock()
	e.invoked++
	e.mu.Unlock()
	switch op {
	case "Echo":
		return "OK", []values.Value{args[0]}, nil
	case "Add":
		a, _ := args[0].AsInt()
		b, _ := args[1].AsInt()
		if a+b < 0 {
			return "Negative", []values.Value{values.Str("sum is negative")}, nil
		}
		return "OK", []values.Value{values.Int(a + b)}, nil
	case "Notify":
		msg, _ := args[0].AsString()
		e.mu.Lock()
		e.notified = append(e.notified, msg)
		e.mu.Unlock()
		return "", nil, nil
	case "Boom":
		return "", nil, errors.New("servant exploded")
	case "BadTerm":
		return "Undeclared", nil, nil
	}
	return "", nil, fmt.Errorf("unhandled op %q", op)
}

func (e *echoServant) Flow(flow string, elem values.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flows = append(e.flows, elem)
}

func (e *echoServant) Signal(name string, _ []values.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.signals = append(e.signals, name)
}

func (e *echoServant) invokedCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.invoked
}

func ifaceID(nonce uint64) naming.InterfaceID {
	return naming.InterfaceID{
		Object: naming.ObjectID{
			Cluster: naming.ClusterID{Capsule: naming.CapsuleID{Node: "server", Seq: 0}, Seq: 0},
			Seq:     0,
		},
		Seq:   0,
		Nonce: nonce,
	}
}

type testEnv struct {
	net     *netsim.Network
	server  *Server
	servant *echoServant
	ref     naming.InterfaceRef
}

func newEnv(t *testing.T, scfg ServerConfig) *testEnv {
	t.Helper()
	n := netsim.New(1)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, scfg)
	servant := &echoServant{}
	id := ifaceID(42)
	if err := srv.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	return &testEnv{
		net:     n,
		server:  srv,
		servant: servant,
		ref: naming.InterfaceRef{
			ID:       id,
			TypeName: "Echo",
			Endpoint: "sim://server",
		},
	}
}

func (e *testEnv) bind(t *testing.T, cfg BindConfig) *Binding {
	t.Helper()
	if cfg.Transport == nil {
		cfg.Transport = e.net
	}
	b, err := Bind(e.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestInvokeRoundTrip(t *testing.T) {
	for name, codec := range map[string]wire.Codec{"canonical": wire.Canonical, "native": wire.Native} {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, ServerConfig{})
			b := env.bind(t, BindConfig{Codec: codec, Type: echoType()})
			term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("hi")})
			if err != nil {
				t.Fatalf("Invoke: %v", err)
			}
			if term != "OK" || len(res) != 1 {
				t.Fatalf("term=%q res=%v", term, res)
			}
			if s, _ := res[0].AsString(); s != "hi" {
				t.Errorf("result = %v", res[0])
			}
		})
	}
}

func TestInvokeMultipleTerminations(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{Type: echoType()})
	term, res, err := b.Invoke(context.Background(), "Add", []values.Value{values.Int(2), values.Int(3)})
	if err != nil || term != "OK" {
		t.Fatalf("Add = %q, %v, %v", term, res, err)
	}
	if sum, _ := res[0].AsInt(); sum != 5 {
		t.Errorf("sum = %v", res[0])
	}
	term, res, err = b.Invoke(context.Background(), "Add", []values.Value{values.Int(-7), values.Int(3)})
	if err != nil || term != "Negative" {
		t.Fatalf("Add = %q, %v, %v", term, res, err)
	}
}

func TestAnnouncement(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{Type: echoType()})
	if err := b.Announce(context.Background(), "Notify", []values.Value{values.Str("ping")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		env.servant.mu.Lock()
		defer env.servant.mu.Unlock()
		return len(env.servant.notified) == 1 && env.servant.notified[0] == "ping"
	})
}

func TestClientTypeChecking(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{Type: echoType()})
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
	}{
		{"unknown-op", func() error { _, _, err := b.Invoke(ctx, "Nope", nil); return err }},
		{"arity", func() error { _, _, err := b.Invoke(ctx, "Echo", nil); return err }},
		{"arg-type", func() error { _, _, err := b.Invoke(ctx, "Echo", []values.Value{values.Int(1)}); return err }},
		{"invoke-announcement", func() error {
			_, _, err := b.Invoke(ctx, "Notify", []values.Value{values.Str("x")})
			return err
		}},
		{"announce-interrogation", func() error {
			return b.Announce(ctx, "Echo", []values.Value{values.Str("x")})
		}},
		{"announce-unknown", func() error { return b.Announce(ctx, "Nope", nil) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.call(); !errors.Is(err, ErrTypeCheck) {
				t.Errorf("err = %v, want ErrTypeCheck", err)
			}
		})
	}
}

func TestServerTypeChecking(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	// Untyped client: bad interactions must be caught by the server stub.
	b := env.bind(t, BindConfig{})
	ctx := context.Background()

	if _, _, err := b.Invoke(ctx, "Nope", nil); !IsRemote(err, CodeNoSuchOperation) {
		t.Errorf("unknown op = %v", err)
	}
	if _, _, err := b.Invoke(ctx, "Echo", []values.Value{values.Int(3)}); !IsRemote(err, CodeBadArgs) {
		t.Errorf("bad arg = %v", err)
	}
	if _, _, err := b.Invoke(ctx, "Echo", nil); !IsRemote(err, CodeBadArgs) {
		t.Errorf("bad arity = %v", err)
	}
}

func TestUnknownInterface(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	ref := env.ref
	ref.ID.Nonce = 999 // right node, wrong interface
	b, err := Bind(ref, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); !IsRemote(err, CodeNoSuchInterface) {
		t.Errorf("err = %v", err)
	}
}

func TestServantError(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	// Register an untyped servant so "Boom" reaches application code.
	id := ifaceID(901)
	if err := env.server.Register(id, nil, &echoServant{}); err != nil {
		t.Fatal(err)
	}
	ref := naming.InterfaceRef{ID: id, Endpoint: "sim://server"}
	b, err := Bind(ref, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, _, err = b.Invoke(context.Background(), "Boom", nil)
	if !IsRemote(err, CodeInternal) {
		t.Fatalf("err = %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Detail, "servant exploded") {
		t.Errorf("detail = %v", err)
	}
}

func TestServerRejectsUndeclaredTermination(t *testing.T) {
	// The servant answers with a termination missing from the type: the
	// server stub must catch its own side's bug.
	n := netsim.New(1)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ServerConfig{})
	id := ifaceID(1)
	typ := types.OpInterface("T", types.Op("BadTerm", nil, types.Term("OK")))
	if err := srv.Register(id, typ, &echoServant{}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	b, err := Bind(naming.InterfaceRef{ID: id, TypeName: "T", Endpoint: "sim://server"},
		BindConfig{Transport: n})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, _, err := b.Invoke(context.Background(), "BadTerm", nil); !IsRemote(err, CodeInternal) {
		t.Errorf("err = %v", err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{Type: echoType()})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				want := fmt.Sprintf("m-%d-%d", i, j)
				term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str(want)})
				if err != nil || term != "OK" {
					t.Errorf("Invoke: %q %v", term, err)
					return
				}
				if got, _ := res[0].AsString(); got != want {
					t.Errorf("cross-talk: got %q, want %q", got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := b.Stats(); st.Invocations != 16*25 {
		t.Errorf("invocations = %d", st.Invocations)
	}
}

func TestFlowsAndSignals(t *testing.T) {
	streamType := types.StreamInterface("S", types.FlowOf("video", types.Producer, values.TBytes()))
	n := netsim.New(1)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ServerConfig{})
	servant := &echoServant{}
	id := ifaceID(7)
	if err := srv.Register(id, streamType, servant); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	b, err := Bind(naming.InterfaceRef{ID: id, TypeName: "S", Endpoint: "sim://server"},
		BindConfig{Transport: n, Type: streamType})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := b.Flow(ctx, "video", values.BytesVal([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flow(ctx, "nope", values.BytesVal(nil)); !errors.Is(err, ErrTypeCheck) {
		t.Errorf("unknown flow = %v", err)
	}
	if err := b.Flow(ctx, "video", values.Str("wrong")); !errors.Is(err, ErrTypeCheck) {
		t.Errorf("mistyped flow = %v", err)
	}
	waitFor(t, func() bool {
		servant.mu.Lock()
		defer servant.mu.Unlock()
		return len(servant.flows) == 3
	})

	// Signals go through an untyped binding (the stream type declares no
	// signals, and a typed binding enforces that).
	ub, err := Bind(naming.InterfaceRef{ID: id, TypeName: "S", Endpoint: "sim://server"},
		BindConfig{Transport: n})
	if err != nil {
		t.Fatal(err)
	}
	defer ub.Close()
	if err := ub.Signal(ctx, "connect", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		servant.mu.Lock()
		defer servant.mu.Unlock()
		return len(servant.signals) == 1
	})
}

func TestSignalTypeCheck(t *testing.T) {
	sigType := types.SignalInterface("G",
		types.Sig("connect", types.Request, types.P("addr", values.TString())))
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{Type: sigType})
	ctx := context.Background()
	if err := b.Signal(ctx, "nope", nil); !errors.Is(err, ErrTypeCheck) {
		t.Errorf("unknown signal = %v", err)
	}
	if err := b.Signal(ctx, "connect", nil); !errors.Is(err, ErrTypeCheck) {
		t.Errorf("arity = %v", err)
	}
	if err := b.Signal(ctx, "connect", []values.Value{values.Int(1)}); !errors.Is(err, ErrTypeCheck) {
		t.Errorf("arg type = %v", err)
	}
	if err := b.Signal(ctx, "connect", []values.Value{values.Str("x")}); err != nil {
		t.Errorf("valid signal = %v", err)
	}
}

func TestProbe(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{})
	if err := b.Probe(context.Background()); err != nil {
		t.Fatalf("Probe: %v", err)
	}
}

func TestStagesTraversedBothEnds(t *testing.T) {
	clientStage := &CountingStage{}
	serverStage := &CountingStage{}
	env := newEnv(t, ServerConfig{Stages: []Stage{serverStage}})
	b := env.bind(t, BindConfig{Stages: []Stage{clientStage}})
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if clientStage.OutMsgs.Load() != 1 || clientStage.InMsgs.Load() != 1 {
		t.Errorf("client stage: out=%d in=%d", clientStage.OutMsgs.Load(), clientStage.InMsgs.Load())
	}
	if serverStage.InMsgs.Load() != 1 || serverStage.OutMsgs.Load() != 1 {
		t.Errorf("server stage: out=%d in=%d", serverStage.OutMsgs.Load(), serverStage.InMsgs.Load())
	}
}

func TestAuditStubRecordsOperations(t *testing.T) {
	audit := &MemoryAudit{}
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{Stages: []Stage{&AuditStage{Sink: audit.Record}}})
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); err != nil {
		t.Fatal(err)
	}
	entries := audit.Entries()
	if len(entries) != 2 {
		t.Fatalf("audit entries = %d, want 2 (call+reply)", len(entries))
	}
	if entries[0].Direction != Outbound || entries[0].Operation != "Echo" {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[1].Direction != Inbound || entries[1].Termination != "OK" {
		t.Errorf("entry 1 = %+v", entries[1])
	}
}

type rejectStage struct{ code string }

func (r *rejectStage) Name() string { return "reject" }
func (r *rejectStage) Process(dir Direction, m *wire.Message) error {
	if dir == Inbound && m.Kind == wire.Call {
		return &StageError{Code: r.code, Detail: "computer says no"}
	}
	return nil
}

func TestServerStageRejection(t *testing.T) {
	env := newEnv(t, ServerConfig{Stages: []Stage{&rejectStage{code: CodeAuth}}})
	b := env.bind(t, BindConfig{})
	_, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")})
	if !IsRemote(err, CodeAuth) {
		t.Errorf("err = %v", err)
	}
}

func TestRelocationTransparency(t *testing.T) {
	// Figure 4 + Section 9.2: the object moves, the binder re-resolves via
	// the relocator and replays; the client code never notices.
	n := netsim.New(1)
	reloc := newFakeLocator()

	l1, err := n.Listen("sim://home1")
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(l1, ServerConfig{})
	servant := &echoServant{}
	id := ifaceID(11)
	if err := srv1.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	defer srv1.Close()

	ref := naming.InterfaceRef{ID: id, TypeName: "Echo", Endpoint: "sim://home1"}
	reloc.set(ref)

	b, err := Bind(ref, BindConfig{Transport: n, Locator: reloc, Policy: policy.RetryPolicy{MaxAttempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx := context.Background()
	if _, _, err := b.Invoke(ctx, "Echo", []values.Value{values.Str("before")}); err != nil {
		t.Fatal(err)
	}

	// Relocate: start the new home, move the servant, update the relocator,
	// deregister at the old home.
	l2, err := n.Listen("sim://home2")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(l2, ServerConfig{})
	if err := srv2.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	defer srv2.Close()
	reloc.move(id, "sim://home2")
	srv1.Unregister(id)

	term, res, err := b.Invoke(ctx, "Echo", []values.Value{values.Str("after")})
	if err != nil {
		t.Fatalf("invoke after relocation: %v", err)
	}
	if s, _ := res[0].AsString(); term != "OK" || s != "after" {
		t.Errorf("reply = %q %v", term, res)
	}
	if st := b.Stats(); st.Relocations == 0 {
		t.Errorf("stats should count a relocation: %+v", st)
	}
	if b.Ref().Endpoint != "sim://home2" {
		t.Errorf("binding ref endpoint = %s", b.Ref().Endpoint)
	}

	// Also transparent when the old home is entirely gone (dial failure).
	reloc.move(id, "sim://home3")
	l3, err := n.Listen("sim://home3")
	if err != nil {
		t.Fatal(err)
	}
	srv3 := NewServer(l3, ServerConfig{})
	if err := srv3.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv3.Start()
	defer srv3.Close()
	srv2.Close()
	if _, _, err := b.Invoke(ctx, "Echo", []values.Value{values.Str("third")}); err != nil {
		t.Fatalf("invoke after second relocation: %v", err)
	}
}

func TestNoRelocationWithoutLocator(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	ref := env.ref
	ref.Endpoint = "sim://nowhere"
	b, err := Bind(ref, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); !errors.Is(err, ErrDisconnected) {
		t.Errorf("err = %v", err)
	}
}

func TestFailureTransparencyRetries(t *testing.T) {
	// A lossy link drops most frames; with retries the invocation still
	// succeeds, and the replay guard keeps execution at-most-once.
	n := netsim.New(1234)
	n.SetLink("client", "server", netsim.LinkProfile{DropRate: 0.5})
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ServerConfig{ReplayGuard: true})
	servant := &echoServant{}
	id := ifaceID(5)
	if err := srv.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	b, err := Bind(naming.InterfaceRef{ID: id, TypeName: "Echo", Endpoint: "sim://server"},
		BindConfig{
			Transport: n,
			Policy:    policy.RetryPolicy{MaxAttempts: 51, AttemptTimeout: 20 * time.Millisecond},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const calls = 10
	for i := 0; i < calls; i++ {
		term, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")})
		if err != nil || term != "OK" {
			t.Fatalf("call %d: %q, %v", i, term, err)
		}
	}
	if servant.invokedCount() > calls {
		t.Errorf("servant executed %d times for %d calls: at-most-once violated", servant.invokedCount(), calls)
	}
	if st := b.Stats(); st.Retries == 0 {
		t.Error("expected retries on a lossy link")
	}
}

func TestReplayGuardRejectsCapturedFrame(t *testing.T) {
	// An attacker captures a frame and replays it on a fresh connection.
	env2 := newEnv(t, ServerConfig{ReplayGuard: true})
	m := &wire.Message{
		Kind:        wire.Call,
		BindingID:   777,
		Seq:         1,
		Correlation: 500,
		Target:      env2.ref.ID,
		Operation:   "Echo",
		Args:        []values.Value{values.Str("x")},
	}
	frame, err := m.EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := env2.net.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(frame); err != nil {
		t.Fatal(err)
	}
	first, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	fm, err := wire.Decode(first)
	if err != nil || fm.Kind != wire.Reply {
		t.Fatalf("first reply = %+v, %v", fm, err)
	}
	// Replay the identical frame: served from cache, not re-executed.
	if err := conn.Send(frame); err != nil {
		t.Fatal(err)
	}
	second, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sm, err := wire.Decode(second)
	if err != nil || sm.Kind != wire.Reply {
		t.Fatalf("replayed reply = %+v, %v", sm, err)
	}
	if env2.servant.invokedCount() != 1 {
		t.Errorf("servant executed %d times, want 1", env2.servant.invokedCount())
	}
	// A regressed correlation id older than the replay window (128 below the
	// high-water mark of 500) is rejected outright.
	old := &wire.Message{
		Kind:        wire.Call,
		BindingID:   777,
		Seq:         2,
		Correlation: 372, // not cached, and 500-372 reaches the window bound
		Target:      env2.ref.ID,
		Operation:   "Echo",
		Args:        []values.Value{values.Str("y")},
	}
	oldFrame, err := old.EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(oldFrame); err != nil {
		t.Fatal(err)
	}
	third, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := wire.Decode(third)
	if err != nil || tm.Kind != wire.ErrReply || tm.Termination != CodeReplay {
		t.Fatalf("regressed call reply = %+v, %v", tm, err)
	}
}

func TestCloseFailsPending(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{})
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); !errors.Is(err, ErrClosed) {
		t.Errorf("invoke after close = %v", err)
	}
}

func TestBindValidation(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	if _, err := Bind(env.ref, BindConfig{}); err == nil {
		t.Error("missing transport should fail")
	}
	if _, err := Bind(naming.InterfaceRef{}, BindConfig{Transport: env.net}); err == nil {
		t.Error("zero ref should fail")
	}
}

func TestServerRegisterValidation(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	if err := env.server.Register(env.ref.ID, nil, nil); err == nil {
		t.Error("nil handler should fail")
	}
	if err := env.server.Register(env.ref.ID, nil, &echoServant{}); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	// The whole channel stack over real TCP loopback.
	tcp := netsim.NewTCP()
	l, err := tcp.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ServerConfig{ReplayGuard: true})
	servant := &echoServant{}
	id := ifaceID(21)
	if err := srv.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	b, err := Bind(naming.InterfaceRef{ID: id, TypeName: "Echo", Endpoint: l.Endpoint()},
		BindConfig{Transport: tcp, Type: echoType()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	term, res, err := b.Invoke(context.Background(), "Add", []values.Value{values.Int(20), values.Int(22)})
	if err != nil || term != "OK" {
		t.Fatalf("Add over TCP = %q, %v, %v", term, res, err)
	}
	if sum, _ := res[0].AsInt(); sum != 42 {
		t.Errorf("sum = %v", res[0])
	}
}

// fakeLocator is a minimal in-test location registry; the real relocator
// (package relocator) layers on top of channel and is tested there.
type fakeLocator struct {
	mu   sync.Mutex
	refs map[naming.InterfaceID]naming.InterfaceRef
}

func newFakeLocator() *fakeLocator {
	return &fakeLocator{refs: make(map[naming.InterfaceID]naming.InterfaceRef)}
}

func (f *fakeLocator) set(ref naming.InterfaceRef) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refs[ref.ID] = ref
}

func (f *fakeLocator) move(id naming.InterfaceID, to naming.Endpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ref := f.refs[id]
	ref.Endpoint = to
	ref.Epoch++
	f.refs[id] = ref
}

func (f *fakeLocator) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ref, ok := f.refs[id]
	if !ok {
		return naming.InterfaceRef{}, errors.New("fake locator: unknown interface")
	}
	return ref, nil
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// cachingLocator serves a stale snapshot until Invalidate is called —
// the shape of a real relocation cache. A binding that retries blind
// (without invalidating) re-reads the stale line forever.
type cachingLocator struct {
	mu          sync.Mutex
	stale       naming.InterfaceRef
	fresh       naming.InterfaceRef
	invalidated int
}

func (c *cachingLocator) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.invalidated == 0 {
		return c.stale, nil
	}
	return c.fresh, nil
}

func (c *cachingLocator) Invalidate(id naming.InterfaceID) {
	c.mu.Lock()
	c.invalidated++
	c.mu.Unlock()
}

func TestStaleLocationInvalidatedNotRetriedBlind(t *testing.T) {
	// Section 9.2 meets the client-side cache: on "no such interface" the
	// binding must push the staleness evidence into its locator (via
	// LocationInvalidator) so the refresh reaches the authority, instead
	// of replaying against the same cached endpoint.
	n := netsim.New(1)
	l1, err := n.Listen("sim://home1")
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(l1, ServerConfig{})
	srv1.Start()
	defer srv1.Close()

	l2, err := n.Listen("sim://home2")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(l2, ServerConfig{})
	servant := &echoServant{}
	id := ifaceID(21)
	if err := srv2.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	defer srv2.Close()

	// The cache still claims home1 (where the interface never was, i.e. a
	// stale snapshot); the authority knows home2.
	staleRef := naming.InterfaceRef{ID: id, TypeName: "Echo", Endpoint: "sim://home1"}
	loc := &cachingLocator{
		stale: staleRef,
		fresh: naming.InterfaceRef{ID: id, TypeName: "Echo", Endpoint: "sim://home2", Epoch: 1},
	}
	b, err := Bind(staleRef, BindConfig{Transport: n, Locator: loc, Policy: policy.RetryPolicy{MaxAttempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")})
	if err != nil || term != "OK" {
		t.Fatalf("invoke via stale cache = %q, %v, %v", term, res, err)
	}
	loc.mu.Lock()
	inv := loc.invalidated
	loc.mu.Unlock()
	if inv == 0 {
		t.Fatal("binding never invalidated the stale cache line")
	}
	if b.Ref().Endpoint != "sim://home2" {
		t.Errorf("binding ref endpoint = %s", b.Ref().Endpoint)
	}
}
