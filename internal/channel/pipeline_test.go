package channel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/values"
)

// TestPipelinedInvokesSingleBinding drives 64 concurrent interrogations
// through ONE binding: with pipelining there is no per-binding
// serialisation, so all of them can be on the wire at once, every
// correlation resolves, and each caller gets its own reply back.
func TestPipelinedInvokesSingleBinding(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	mgr := NewSessionManager(env.net)
	b, err := Bind(env.ref, BindConfig{Sessions: mgr})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const calls = 64
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("call-%d", i)
			term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str(want)})
			if err != nil || term != "OK" {
				t.Errorf("call %d: %q %v", i, term, err)
				return
			}
			if got, _ := res[0].AsString(); got != want {
				t.Errorf("cross-delivery: call %d got %q, want %q", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	if st := mgr.Stats(); st.Dials != 1 || st.Open != 1 {
		t.Errorf("manager stats = %+v, want 1 dial / 1 open", st)
	}
}

// TestPipelinedSessionDeathFailsAllInFlight parks 64 interrogations of one
// binding in a blocked servant, kills the session, and requires every one
// of them to fail with ErrDisconnected — none hang, none succeed.
func TestPipelinedSessionDeathFailsAllInFlight(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	slow := ifaceID(78)
	block := make(chan struct{})
	defer close(block)
	if err := env.server.Register(slow, nil, HandlerFunc(
		func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return "OK", args, nil
		})); err != nil {
		t.Fatal(err)
	}
	mgr := NewSessionManager(env.net)
	b, err := Bind(naming.InterfaceRef{ID: slow, Endpoint: "sim://server"},
		BindConfig{Sessions: mgr})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const calls = 64
	var started atomic.Int64
	errs := make(chan error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Add(1)
			_, _, err := b.Invoke(context.Background(), "Sleep",
				[]values.Value{values.Str(fmt.Sprintf("c%d", i))})
			errs <- err
		}(i)
	}
	waitFor(t, func() bool { return started.Load() == calls })
	time.Sleep(20 * time.Millisecond) // let the frames reach the wire
	sess := mgr.peek("sim://server")
	if sess == nil {
		t.Fatal("no live session")
	}
	sess.kill(false)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight calls hung after session kill")
	}
	close(errs)
	n := 0
	for err := range errs {
		n++
		if !errors.Is(err, ErrDisconnected) {
			t.Errorf("in-flight call = %v, want ErrDisconnected", err)
		}
	}
	if n != calls {
		t.Errorf("resolved %d calls, want %d", n, calls)
	}
}

// A binding admits every caller: with calls parked in the servant, one
// more call still reaches it, and a caller that gives up while its call
// runs gets its context's error — not a link failure — and disturbs
// neither the parked calls nor the binding.
func TestBindingAdmitsEveryCaller(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	slow := ifaceID(80)
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	var parked atomic.Int64
	if err := env.server.Register(slow, nil, HandlerFunc(
		func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
			parked.Add(1)
			select {
			case <-block:
			case <-ctx.Done():
			}
			return "OK", args, nil
		})); err != nil {
		t.Fatal(err)
	}
	b, err := Bind(naming.InterfaceRef{ID: slow, Endpoint: "sim://server"},
		BindConfig{Sessions: NewSessionManager(env.net)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Fewer calls than the server's smallest worker pool (workersPerProc
	// at GOMAXPROCS 1), so every parked call holds a worker of its own.
	const calls = workersPerProc - 1
	done := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, _, err := b.Invoke(context.Background(), "Sleep", nil)
			done <- err
		}()
	}
	waitFor(t, func() bool { return parked.Load() == calls })

	ctx, cancel := context.WithCancel(context.Background())
	quitter := make(chan error, 1)
	go func() {
		_, _, err := b.Invoke(ctx, "Sleep", nil)
		quitter <- err
	}()
	waitFor(t, func() bool { return parked.Load() == calls+1 })
	cancel()
	select {
	case err := <-quitter:
		if !errors.Is(err, context.Canceled) || errors.Is(err, ErrDisconnected) {
			t.Fatalf("abandoned call = %v, want context.Canceled and not ErrDisconnected", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned call did not return")
	}

	release()
	for i := 0; i < calls; i++ {
		if err := <-done; err != nil {
			t.Fatalf("parked call: %v", err)
		}
	}
	if _, _, err := b.Invoke(context.Background(), "Sleep", nil); err != nil {
		t.Fatalf("call after the others: %v", err)
	}
}

// TestOneWayQueuedCounter sends announcements through the batched plane
// and checks BindingStats.OneWayQueued counts every frame handed to the
// send queue.
func TestOneWayQueuedCounter(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	mgr := NewSessionManager(env.net)
	b, err := Bind(env.ref, BindConfig{Sessions: mgr, Type: echoType()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const announces = 5
	for i := 0; i < announces; i++ {
		if err := b.Announce(context.Background(), "Notify", []values.Value{values.Str("x")}); err != nil {
			t.Fatalf("announce %d: %v", i, err)
		}
	}
	if got := b.Stats().OneWayQueued; got != announces {
		t.Errorf("OneWayQueued = %d, want %d", got, announces)
	}
}

// TestErrSessionClosingMatchesDisconnected pins the satellite contract:
// the typed queue-teardown error participates in every existing
// errors.Is(err, ErrDisconnected) retry decision.
func TestErrSessionClosingMatchesDisconnected(t *testing.T) {
	if !errors.Is(ErrSessionClosing, ErrDisconnected) {
		t.Fatal("ErrSessionClosing must wrap ErrDisconnected")
	}
	wrapped := fmt.Errorf("send: %w", ErrSessionClosing)
	if !errors.Is(wrapped, ErrSessionClosing) || !errors.Is(wrapped, ErrDisconnected) {
		t.Fatal("wrapped ErrSessionClosing lost sentinel identity")
	}
}
