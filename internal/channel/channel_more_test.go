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
	// A flow and an announcement to an interface the server does not
	// serve: dropped and counted.
	ghost := env.ref
	ghost.ID.Nonce = 424242
	gb, err := Bind(ghost, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer gb.Close()
	if err := gb.Flow(ctx, "f", values.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := gb.Announce(ctx, "Notify", []values.Value{values.Str("x")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return env.server.Stats().Errors == 5 })
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

// An announcement to an interface the server does not serve has no
// failure path back, so the server counts it in Errors, as it counts a flow
// element that misses its interface; the caller still sees success.
func TestAnnouncementToUnknownTargetCounted(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	ghost := env.ref
	ghost.ID.Nonce = 424242
	b, err := Bind(ghost, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Announce(context.Background(), "Notify", []values.Value{values.Str("x")}); err != nil {
		t.Fatalf("Announce = %v, want nil (an announcement has no failure path back)", err)
	}
	waitFor(t, func() bool { return env.server.Stats().Errors == 1 })
	if st := env.server.Stats(); st.OneWays != 1 {
		t.Errorf("stats = %+v, want 1 one-way", st)
	}
	if env.servant.invokedCount() != 0 {
		t.Errorf("the served interface's servant ran %d times, want 0", env.servant.invokedCount())
	}
}

// flowlessServant handles operations but not flows.
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
	// An announcement to a stream interface names no operation.
	if err := b.Announce(ctx, "s", nil); err != nil {
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

// A call whose context expires against a peer that accepts and never
// answers leaves no waiter behind in the session's pending table.
func TestExpiredCallLeavesNoWaiter(t *testing.T) {
	env := newEnv(t, ServerConfig{})
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
	if _, _, err := mute.Invoke(ctx, "Echo", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call to a mute peer = %v, want DeadlineExceeded", err)
	}
	sess := mute.sessions.peek("sim://mute")
	if sess == nil {
		t.Fatal("no session to the mute peer")
	}
	sess.mu.Lock()
	pending := len(sess.pending)
	sess.mu.Unlock()
	if pending != 0 {
		t.Errorf("expired call left %d entries in the pending table", pending)
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
	env := newEnv(t, ServerConfig{})
	call, err := (&wire.Message{Kind: wire.Call, Correlation: 5, Target: env.ref.ID, Operation: "Echo",
		Args: []values.Value{values.Str("x")}}).EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := env.net.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, tc := range []struct {
		name  string
		frame []byte
	}{
		{"truncated frame", call[:len(call)-3]},
		{"valid frame of a kind no server handles", unknownKind},
	} {
		if err := conn.Send(tc.frame); err != nil {
			t.Fatal(err)
		}
		want := uint64(i + 1)
		waitFor(t, func() bool { return env.server.Stats().BadFrames == want })
	}
	if err := conn.Send(call); err != nil {
		t.Fatal(err)
	}
	frame, err := conn.Recv()
	if err != nil {
		t.Fatalf("connection unusable after bad frames: %v", err)
	}
	if reply, err := wire.Decode(frame); err != nil || reply.Kind != wire.Reply || reply.Correlation != 5 {
		t.Fatalf("reply after bad frames = %+v, %v", reply, err)
	}
}

// retiredFrame encodes a bare frame of a kind the wire no longer defines:
// 4 was a raw signal-interface primitive, 7 and 8 a liveness probe and its
// acknowledgement, which a peer built before their removal may still send.
func retiredFrame(t *testing.T, kind wire.MsgKind, binding, corr uint64) []byte {
	t.Helper()
	frame, err := (&wire.Message{Kind: kind, BindingID: binding, Correlation: corr}).EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// A frame of a retired kind is a bad frame like any unknown kind: the
// server counts it, answers nothing, and serves the connection's next call.
func TestRetiredKindsAreBadFrames(t *testing.T) {
	for _, kind := range []wire.MsgKind{4, 7, 8} {
		t.Run(kind.String(), func(t *testing.T) {
			env := newEnv(t, ServerConfig{})
			conn, err := env.net.Dial(context.Background(), "sim://server")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.Send(retiredFrame(t, kind, 1, 4)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return env.server.Stats().BadFrames == 1 })
			call, err := (&wire.Message{Kind: wire.Call, BindingID: 1, Correlation: 5, Target: env.ref.ID,
				Operation: "Echo", Args: []values.Value{values.Str("x")}}).EncodeAppend(nil, wire.Canonical)
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Send(call); err != nil {
				t.Fatal(err)
			}
			// The server's replies leave in order, so an answer to the
			// retired frame would arrive before the call's reply.
			frame, err := conn.Recv()
			if err != nil {
				t.Fatalf("connection unusable after a %v frame: %v", kind, err)
			}
			if reply, err := wire.Decode(frame); err != nil || reply.Kind != wire.Reply || reply.Correlation != 5 {
				t.Fatalf("first frame after a %v frame = %+v, %v; want the call's reply", kind, reply, err)
			}
			if st := env.server.Stats(); st.BadFrames != 1 || st.Calls != 1 {
				t.Errorf("stats = %+v, want 1 bad frame and 1 call", st)
			}
		})
	}
}

// A peer that cycles binding ids on one connection grows nothing: the
// server counts at most maxGuardBindings of them for BindingsPerSession.
func TestBindingsPerSessionIsBounded(t *testing.T) {
	domain := mgmt.New()
	ins := domain.ChannelServer("server")
	env := newEnv(t, ServerConfig{Instruments: ins})
	conn, err := env.net.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	const ids = 5000
	for id := uint64(1); id <= ids; id++ {
		// A kind no server handles: counted, never answered.
		frame, err := (&wire.Message{Kind: wire.MsgKind(99), BindingID: id}).EncodeAppend(nil, wire.Canonical)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return env.server.Stats().BadFrames == ids })
	conn.Close()
	waitFor(t, func() bool { return ins.BindingsPerSession.Snapshot().Count == 1 })
	if got := ins.BindingsPerSession.Snapshot().Sum; got > maxGuardBindings {
		t.Errorf("BindingsPerSession observed %d bindings for %d ids, want at most %d", got, ids, maxGuardBindings)
	}
}
