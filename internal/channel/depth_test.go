package channel

import (
	"context"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/values"
	"repro/internal/wire"
)

// tooDeep is a value nested well past the transfer syntax's depth bound.
func tooDeep() values.Value {
	v := values.Null()
	for i := 0; i < 100; i++ {
		v = values.Seq(v)
	}
	return v
}

// recvWithin reads and decodes the next frame on conn, failing the test if
// none arrives within d.
func recvWithin(t *testing.T, conn netsim.Conn, d time.Duration) *wire.Message {
	t.Helper()
	frames := make(chan []byte, 1)
	go func() {
		f, err := conn.Recv()
		if err != nil {
			f = nil
		}
		frames <- f
	}()
	select {
	case f := <-frames:
		if f == nil {
			t.Fatal("connection closed before an answer")
		}
		m, err := wire.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		return m
	case <-time.After(d):
		t.Fatalf("no answer within %v", d)
	}
	return nil
}

// TestDeepFrameIsABadFrame: a 5 MB Call frame whose one argument is
// 1,000,000 nested one-element sequences is, to a server, one bad frame —
// counted, dropped — and the same connection goes on being served.
func TestDeepFrameIsABadFrame(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	conn, err := env.net.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	call := &wire.Message{Kind: wire.Call, BindingID: 3, Correlation: 1, Target: env.ref.ID, Operation: "Echo"}
	frame, err := call.EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	frame = binary.BigEndian.AppendUint16(frame[:len(frame)-2], 1) // one argument
	for i := 0; i < 1_000_000; i++ {
		frame = append(frame, byte(values.KindSeq), 0, 0, 0, 1)
	}
	if err := conn.Send(append(frame, byte(values.KindNull))); err != nil {
		t.Fatal(err)
	}
	call.Correlation, call.Args = 2, []values.Value{values.Str("still here")}
	if frame, err = call.EncodeAppend(nil, wire.Canonical); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(frame); err != nil {
		t.Fatal(err)
	}
	m := recvWithin(t, conn, 5*time.Second)
	if s, _ := m.Args[0].AsString(); m.Kind != wire.Reply || m.Correlation != 2 || s != "still here" {
		t.Fatalf("next call answered %v %q %v", m.Kind, m.Termination, m.Args)
	}
	if st := env.server.Stats(); st.BadFrames != 1 {
		t.Errorf("BadFrames = %d, want 1", st.BadFrames)
	}
}

// TestTooDeepResultIsAnsweredInternal: a servant whose result the codec
// refuses is answered CodeInternal — not left unanswered until the
// caller's attempt times out — and the replay guard records that answer,
// so a resend of the same correlation gets it again without running the
// servant twice.
func TestTooDeepResultIsAnsweredInternal(t *testing.T) {
	env := newEnv(t, ServerConfig{ReplayGuard: true})
	var runs atomic.Int32
	id := ifaceID(77)
	if err := env.server.Register(id, nil, HandlerFunc(func(context.Context, string, []values.Value) (string, []values.Value, error) {
		runs.Add(1)
		return "OK", []values.Value{tooDeep()}, nil
	})); err != nil {
		t.Fatal(err)
	}
	b, err := Bind(naming.InterfaceRef{ID: id, Endpoint: "sim://server"}, BindConfig{
		Transport: env.net,
		Policy:    policy.RetryPolicy{MaxAttempts: 3, AttemptTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	start := time.Now()
	if _, _, err := b.Invoke(context.Background(), "Deep", nil); !IsRemote(err, CodeInternal) {
		t.Fatalf("err = %v, want %s", err, CodeInternal)
	}
	if d := time.Since(start); d >= 5*time.Second {
		t.Errorf("answered after %v, past the attempt timeout", d)
	}

	conn, err := env.net.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := (&wire.Message{Kind: wire.Call, BindingID: 9, Correlation: 1, Target: id,
		Operation: "Deep"}).EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
		if m := recvWithin(t, conn, 5*time.Second); m.Kind != wire.ErrReply || m.Termination != CodeInternal {
			t.Fatalf("send %d answered %v %q", i+1, m.Kind, m.Termination)
		}
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("servant ran %d times, want 2 (once per binding: the resend is answered from the guard)", n)
	}
}

// TestTooDeepArgumentIsNotRetried: an argument the codec refuses fails the
// call at once with wire.ErrTooDeep; another attempt would be refused
// again, so none is made.
func TestTooDeepArgumentIsNotRetried(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{Policy: policy.RetryPolicy{MaxAttempts: 5}})
	if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{tooDeep()}); !errors.Is(err, wire.ErrTooDeep) {
		t.Fatalf("err = %v, want wire.ErrTooDeep", err)
	}
	if st := b.Stats(); st.Retries != 0 {
		t.Errorf("Retries = %d, want 0", st.Retries)
	}
	if n := env.server.Stats().Calls; n != 0 {
		t.Errorf("server received %d calls, want 0", n)
	}
}
