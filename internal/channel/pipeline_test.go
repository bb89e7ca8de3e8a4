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
	b, err := Bind(env.ref, BindConfig{Sessions: mgr, MaxInFlight: 64})
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
		BindConfig{Sessions: mgr, MaxInFlight: 64})
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

// TestMaxInFlightFailFast fills a 2-deep binding and requires the next
// Invoke to be rejected immediately with ErrTooManyInFlight — which must
// NOT satisfy errors.Is(err, ErrDisconnected), so the retry and
// relocation machinery never treats admission rejection as link failure.
func TestMaxInFlightFailFast(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	slow := ifaceID(79)
	block := make(chan struct{})
	defer close(block)
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
	mgr := NewSessionManager(env.net)
	b, err := Bind(naming.InterfaceRef{ID: slow, Endpoint: "sim://server"},
		BindConfig{Sessions: mgr, MaxInFlight: 2, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := b.Invoke(context.Background(), "Sleep", nil); err != nil {
				t.Errorf("parked call: %v", err)
			}
		}()
	}
	waitFor(t, func() bool { return parked.Load() == 2 })

	_, _, err = b.Invoke(context.Background(), "Sleep", nil)
	if !errors.Is(err, ErrTooManyInFlight) {
		t.Fatalf("over-cap invoke = %v, want ErrTooManyInFlight", err)
	}
	if errors.Is(err, ErrDisconnected) {
		t.Fatal("ErrTooManyInFlight must not match ErrDisconnected")
	}
	block <- struct{}{}
	block <- struct{}{}
	wg.Wait()

	// With the slots free again the binding admits calls normally.
	go func() { block <- struct{}{} }()
	if _, _, err := b.Invoke(context.Background(), "Sleep", nil); err != nil {
		t.Fatalf("invoke after drain: %v", err)
	}
}

// TestMaxInFlightQueueMode exercises the default (queueing) admission
// policy: an over-cap Invoke waits for a slot instead of failing, and a
// cancelled context releases the waiter with ctx.Err().
func TestMaxInFlightQueueMode(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	slow := ifaceID(80)
	block := make(chan struct{})
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
	mgr := NewSessionManager(env.net)
	b, err := Bind(naming.InterfaceRef{ID: slow, Endpoint: "sim://server"},
		BindConfig{Sessions: mgr, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	first := make(chan error, 1)
	go func() {
		_, _, err := b.Invoke(context.Background(), "Sleep", nil)
		first <- err
	}()
	waitFor(t, func() bool { return parked.Load() == 1 })

	// A queued waiter with a cancelled context gives up with ctx.Err()
	// without ever taking the slot.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, _, err := b.Invoke(ctx, "Sleep", nil)
		queued <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it park on the semaphore
	cancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter hung on the in-flight semaphore")
	}

	// A patient waiter runs once the slot frees.
	second := make(chan error, 1)
	go func() {
		_, _, err := b.Invoke(context.Background(), "Sleep", nil)
		second <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(block) // unblock everything from here on
	if err := <-first; err != nil {
		t.Fatalf("first call: %v", err)
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("queued call: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued call never admitted after slot freed")
	}
}

// TestOneWayQueuedCounter sends announcements, flow elements and signals
// through the batched plane and checks BindingStats.OneWayQueued counts
// every frame handed to the send queue.
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
