package channel

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

func TestServerAccessors(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{})
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); err != nil {
		t.Fatal(err)
	}
	st := env.server.Stats()
	if st.Calls != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHandlerFunc(t *testing.T) {
	h := HandlerFunc(func(_ context.Context, op string, _ []values.Value) (string, []values.Value, error) {
		return "OK", []values.Value{values.Str(op)}, nil
	})
	term, res, err := h.Invoke(context.Background(), "Ping", nil)
	if err != nil || term != "OK" || len(res) != 1 {
		t.Errorf("HandlerFunc = %q, %v, %v", term, res, err)
	}
}

func TestErrorStrings(t *testing.T) {
	re := &RemoteError{Code: CodeAuth}
	if re.Error() != "channel: remote error ERR_AUTH" {
		t.Errorf("bare = %q", re.Error())
	}
	re2 := &RemoteError{Code: CodeAuth, Detail: "nope"}
	if re2.Error() != "channel: remote error ERR_AUTH: nope" {
		t.Errorf("detailed = %q", re2.Error())
	}
	se := &StageError{Code: CodeReplay, Detail: "old"}
	if se.Error() == "" {
		t.Error("StageError empty")
	}
	if Outbound.String() != "outbound" || Inbound.String() != "inbound" {
		t.Error("direction strings")
	}
}

func TestAnnouncementRetriesOnDisconnect(t *testing.T) {
	// Kill the server between announcements: with retries the announce
	// reconnects, without retries it errors.
	n := netsim.New(8)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ServerConfig{})
	servant := &echoServant{}
	id := ifaceID(3)
	if err := srv.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	b, err := Bind(refFor(id, "Echo"), BindConfig{Transport: n, Policy: policy.RetryPolicy{MaxAttempts: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx := context.Background()
	if err := b.Announce(ctx, "Notify", []values.Value{values.Str("one")}); err != nil {
		t.Fatal(err)
	}
	// Announcements are asynchronous: wait for delivery before the restart
	// tears the connection down.
	waitFor(t, func() bool {
		servant.mu.Lock()
		defer servant.mu.Unlock()
		return len(servant.notified) == 1
	})
	// Restart the server (conn dies; the binder must redial).
	srv.Close()
	l2, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(l2, ServerConfig{})
	if err := srv2.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	defer srv2.Close()
	if err := b.Announce(ctx, "Notify", []values.Value{values.Str("two")}); err != nil {
		t.Fatalf("announce after restart: %v", err)
	}
	waitFor(t, func() bool {
		servant.mu.Lock()
		defer servant.mu.Unlock()
		return len(servant.notified) == 2
	})
	// Depending on when the read loop observes the close, the binder either
	// redials pre-emptively (a reconnect) or fails the send and retries;
	// both are the failure-transparency path.
	if st := b.Stats(); st.Reconnects < 2 && st.Retries == 0 {
		t.Errorf("stats should show recovery: %+v", st)
	}
}

func refFor(id naming.InterfaceID, typeName string) naming.InterfaceRef {
	return naming.InterfaceRef{ID: id, TypeName: typeName, Endpoint: "sim://server"}
}

func TestServerRejectsBadOneWaysAndFlows(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{}) // untyped client: server-side checks engage
	ctx := context.Background()

	// OneWay for an interrogation op: dropped and counted.
	if err := b.Announce(ctx, "Echo", []values.Value{values.Str("x")}); err != nil {
		t.Fatal(err)
	}
	// OneWay with bad args: dropped.
	if err := b.Announce(ctx, "Notify", []values.Value{values.Int(1)}); err != nil {
		t.Fatal(err)
	}
	// Flow against an operational interface: dropped.
	if err := b.Flow(ctx, "video", values.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Flow with a mistyped element against a typed stream servant.
	// Signal against a servant that accepts signals passes; against the
	// typed echo servant it is delivered (echoServant implements
	// SignalReceiver), so use an unknown target for the error path.
	ghost := env.ref
	ghost.ID.Nonce = 424242
	gb, err := Bind(ghost, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer gb.Close()
	if err := gb.Signal(ctx, "sig", nil); err != nil {
		t.Fatal(err)
	}
	if err := gb.Flow(ctx, "f", values.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := gb.Announce(ctx, "Notify", []values.Value{values.Str("x")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return env.server.Stats().Errors >= 3 })
	// The good announcement path still works.
	if err := b.Announce(ctx, "Notify", []values.Value{values.Str("ok")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		env.servant.mu.Lock()
		defer env.servant.mu.Unlock()
		return len(env.servant.notified) == 1
	})
}

// flowOnlyServant handles operations but not flows/signals.
type flowlessServant struct{}

func (flowlessServant) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	return "OK", nil, nil
}

func TestFlowToNonReceiverCountsError(t *testing.T) {
	n := netsim.New(9)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ServerConfig{})
	id := ifaceID(4)
	st := types.StreamInterface("S", types.FlowOf("f", types.Consumer, values.TInt()))
	if err := srv.Register(id, st, flowlessServant{}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	b, err := Bind(refFor(id, "S"), BindConfig{Transport: n})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx := context.Background()
	if err := b.Flow(ctx, "f", values.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Signal(ctx, "s", nil); err != nil {
		t.Fatal(err)
	}
	// Typed flow with a bad element type: rejected server-side.
	if err := b.Flow(ctx, "f", values.Str("wrong")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Stats().Errors >= 3 })
	// The satellite counter: the mistyped element and the flow-to-non-
	// receiver are type errors, not just anonymous Errors.
	waitFor(t, func() bool { return srv.Stats().FlowTypeErrors >= 2 })
}

func TestInvokeContextCancelled(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Invoke(ctx, "Echo", []values.Value{values.Str("x")}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestProbeTimeout(t *testing.T) {
	// A probe against a black-holed endpoint times out via the policy's AttemptTimeout.
	n := netsim.New(10)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() // accept but never serve
	b, err := Bind(refFor(ifaceID(1), "X"), BindConfig{
		Transport: n,
		Policy:    policy.RetryPolicy{AttemptTimeout: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Probe(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("probe = %v", err)
	}
}

// A probe is the binding's ordinary round trip carrying a Probe frame: it
// crosses the stages in both directions, is traced like a call's transport
// leg, is not a call at the server, and an abandoned one leaves no waiter
// behind.
func TestProbeIsARoundTrip(t *testing.T) {
	stage := &CountingStage{}
	domain := mgmt.New()
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{Stages: []Stage{stage}, Instruments: domain.ChannelClient("echo")})
	if err := b.Probe(context.Background()); err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if out, in := stage.OutMsgs.Load(), stage.InMsgs.Load(); out != 1 || in != 1 {
		t.Errorf("stage saw out=%d in=%d, want 1 and 1", out, in)
	}
	transport := 0
	for _, sp := range domain.Tracer.Spans() {
		if sp.Name == "transport" && sp.Err == "" {
			transport++
		}
	}
	if transport != 1 {
		t.Errorf("transport spans = %d, want 1: %+v", transport, domain.Tracer.Spans())
	}
	if st := env.server.Stats(); st.Calls != 0 {
		t.Errorf("server counted %d calls for a probe", st.Calls)
	}

	// A peer that accepts and never answers: the probe's context expires.
	l, err := env.net.Listen("sim://mute")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mute, err := Bind(naming.InterfaceRef{ID: ifaceID(1), Endpoint: "sim://mute"}, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := mute.Probe(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe of a mute peer = %v, want DeadlineExceeded", err)
	}
	sess := mute.Sessions().peek("sim://mute")
	if sess == nil {
		t.Fatal("no session to the mute peer")
	}
	sess.mu.Lock()
	pending := len(sess.pending)
	sess.mu.Unlock()
	if pending != 0 {
		t.Errorf("expired probe left %d entries in the pending table", pending)
	}
}

// Every frame the read loop cannot serve is counted once in ServerStats
// and once in the management counter odpstat reads — the two must agree —
// and costs the connection nothing.
func TestBadFrameCounted(t *testing.T) {
	unknownKind, err := (&wire.Message{Kind: wire.MsgKind(99)}).EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := (&wire.Message{Kind: wire.Probe, Correlation: 5}).EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, ServerConfig{})
	conn, err := env.net.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, tc := range []struct {
		name  string
		frame []byte
	}{
		{"truncated frame", probe[:len(probe)-3]},
		{"valid frame of a kind no server handles", unknownKind},
	} {
		if err := conn.Send(tc.frame); err != nil {
			t.Fatal(err)
		}
		want := uint64(i + 1)
		waitFor(t, func() bool { return env.server.Stats().BadFrames == want })
	}
	if err := conn.Send(probe); err != nil {
		t.Fatal(err)
	}
	frame, err := conn.Recv()
	if err != nil {
		t.Fatalf("connection unusable after bad frames: %v", err)
	}
	if ack, err := wire.Decode(frame); err != nil || ack.Kind != wire.ProbeAck || ack.Correlation != 5 {
		t.Fatalf("reply after bad frames = %+v, %v", ack, err)
	}
}
