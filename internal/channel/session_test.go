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
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/values"
	"repro/internal/wire"
)

// sharedEnv builds a server plus a shared SessionManager and n bindings
// to the same echo interface over it.
func sharedEnv(t *testing.T, scfg ServerConfig, n int, cfg BindConfig) (*testEnv, *SessionManager, []*Binding) {
	t.Helper()
	env := newEnv(t, scfg)
	mgr := NewSessionManager(env.net)
	bindings := make([]*Binding, n)
	for i := range bindings {
		c := cfg
		c.Sessions = mgr
		b, err := Bind(env.ref, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		bindings[i] = b
	}
	return env, mgr, bindings
}

func TestSharedSessionSingleConn(t *testing.T) {
	// 8 bindings over one manager: one dial, one server-side session, and
	// concurrent interrogations demux by (BindingID, Correlation) with no
	// cross-delivery.
	env, mgr, bindings := sharedEnv(t, ServerConfig{}, 8, BindConfig{Type: echoType()})
	var wg sync.WaitGroup
	for i, b := range bindings {
		wg.Add(1)
		go func(i int, b *Binding) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				want := fmt.Sprintf("b%d-c%d", i, j)
				term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str(want)})
				if err != nil || term != "OK" {
					t.Errorf("binding %d: %q %v", i, term, err)
					return
				}
				if got, _ := res[0].AsString(); got != want {
					t.Errorf("cross-delivery: binding %d got %q, want %q", i, got, want)
					return
				}
			}
		}(i, b)
	}
	wg.Wait()
	if st := mgr.Stats(); st.Dials != 1 || st.Open != 1 {
		t.Errorf("manager stats = %+v, want 1 dial / 1 open", st)
	}
	if st := env.server.Stats(); st.Sessions != 1 {
		t.Errorf("server sessions = %d, want 1 (8 bindings, one conn)", st.Sessions)
	}
	// Reference counting: closing 7 bindings keeps the session; the last
	// one out closes it.
	for _, b := range bindings[:7] {
		b.Close()
	}
	if st := mgr.Stats(); st.Open != 1 {
		t.Errorf("open after 7 closes = %d, want 1", st.Open)
	}
	bindings[7].Close()
	waitFor(t, func() bool { return mgr.Stats().Open == 0 })
}

// TestE10bSiblingsAllocBudget: one Echo on a session shared with up to 255
// sibling bindings allocates no more than on a session it has to itself —
// the per-call price of multiplexing is a demux-table lookup, not a heap
// object.
func TestE10bSiblingsAllocBudget(t *testing.T) {
	echo := func(t *testing.T, n int) float64 {
		_, _, bindings := sharedEnv(t, ServerConfig{}, n, BindConfig{})
		for _, b := range bindings { // every sibling attached to the one session
			if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("hi")}); err != nil {
				t.Fatal(err)
			}
		}
		return echoAllocs(t, bindings[0])
	}
	alone := echo(t, 1)
	for _, siblings := range []int{1, 63, 255} {
		t.Run(fmt.Sprintf("siblings=%d", siblings), func(t *testing.T) {
			if crowded := echo(t, 1+siblings); crowded > alone {
				t.Errorf("echo beside %d siblings = %v allocs/op, alone = %v", siblings, crowded, alone)
			}
		})
	}
}

func TestSessionKillMidFlightFailsAllPending(t *testing.T) {
	// Concurrent Invokes across 8 bindings sharing one session while the
	// session is killed mid-flight: every pending call fails with
	// ErrDisconnected — none hang, none receive another call's reply.
	env := newEnv(t, ServerConfig{})
	slow := ifaceID(77)
	block := make(chan struct{})
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
	const nb = 8
	bindings := make([]*Binding, nb)
	for i := range bindings {
		b, err := Bind(naming.InterfaceRef{ID: slow, Endpoint: "sim://server"},
			BindConfig{Sessions: mgr})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		bindings[i] = b
	}

	var inflight atomic.Int64
	errs := make(chan error, nb*2)
	var wg sync.WaitGroup
	for i, b := range bindings {
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func(i, j int, b *Binding) {
				defer wg.Done()
				inflight.Add(1)
				_, _, err := b.Invoke(context.Background(), "Sleep",
					[]values.Value{values.Str(fmt.Sprintf("b%d-c%d", i, j))})
				errs <- err
			}(i, j, b)
		}
	}
	waitFor(t, func() bool { return inflight.Load() == nb*2 })
	time.Sleep(20 * time.Millisecond) // let the calls reach the wire
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
		t.Fatal("pending calls hung after session kill")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrDisconnected) {
			t.Errorf("pending call = %v, want ErrDisconnected", err)
		}
	}
	if st := mgr.Stats(); st.Deaths != 1 {
		t.Errorf("deaths = %d, want 1 shared failover", st.Deaths)
	}
	// The shared failure detector does not wedge the manager: the next
	// invocation redials one fresh session for everyone.
	close(block) // let the handler answer promptly from here on
	if _, _, err := bindings[0].Invoke(context.Background(), "Sleep", nil); err != nil {
		t.Fatalf("invoke after failover: %v", err)
	}
	if st := mgr.Stats(); st.Dials != 2 {
		t.Errorf("dials = %d, want 2 (one per session establishment)", st.Dials)
	}
	_ = env
}

func TestSessionCorruptFrameDoesNotStrandOthers(t *testing.T) {
	// A frame the client end cannot serve — corrupt, or well formed but of
	// a kind no client accepts — fails only its own call (by per-call
	// timeout), is counted where an operator can see it, and never strands
	// or misroutes the other bindings' pending calls.
	call := &wire.Message{Kind: wire.Call, BindingID: 1, Correlation: 1, Operation: "intruder"}
	callFrame, err := call.EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		poison []byte
	}{
		{"truncated frame", []byte{0xde, 0xad, 0xbe, 0xef}},
		{"valid frame of kind Call", callFrame},
	} {
		t.Run(tc.name, func(t *testing.T) { corruptFrameCase(t, tc.poison) })
	}
}

func corruptFrameCase(t *testing.T, poison []byte) {
	n := netsim.New(3)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A raw wire-speaking server: echoes every call, except that the
	// operation "bad" is answered with the poison frame.
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					frame, err := conn.Recv()
					if err != nil {
						return
					}
					m, err := wire.Decode(frame)
					if err != nil {
						continue
					}
					if m.Operation == "bad" {
						_ = conn.Send(poison)
						continue
					}
					rm := &wire.Message{
						Kind:        wire.Reply,
						BindingID:   m.BindingID,
						Correlation: m.Correlation,
						Target:      m.Target,
						Operation:   m.Operation,
						Termination: "OK",
						Args:        m.Args,
					}
					out, err := rm.EncodeAppend(nil, wire.Canonical)
					if err != nil {
						continue
					}
					_ = conn.Send(out)
				}
			}()
		}
	}()

	mgr := NewSessionManager(n)
	const nb = 4
	bindings := make([]*Binding, nb)
	for i := range bindings {
		b, err := Bind(naming.InterfaceRef{ID: ifaceID(9), Endpoint: "sim://server"},
			BindConfig{Sessions: mgr, Policy: policy.RetryPolicy{AttemptTimeout: 150 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		bindings[i] = b
	}

	var wg sync.WaitGroup
	// Binding 0 sends the poisoned call; the rest keep invoking while the
	// poison frame arrives and after.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := bindings[0].Invoke(context.Background(), "bad", nil)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("poisoned call = %v, want DeadlineExceeded", err)
		}
	}()
	for i, b := range bindings[1:] {
		wg.Add(1)
		go func(i int, b *Binding) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				want := fmt.Sprintf("ok-%d-%d", i, j)
				term, res, err := b.Invoke(context.Background(), "echo", []values.Value{values.Str(want)})
				if err != nil || term != "OK" {
					t.Errorf("sibling %d stranded: %q %v", i, term, err)
					return
				}
				if got, _ := res[0].AsString(); got != want {
					t.Errorf("sibling %d misrouted: got %q want %q", i, got, want)
					return
				}
			}
		}(i, b)
	}
	wg.Wait()
	// The poison is behind us on the same session: a sibling still completes.
	if _, _, err := bindings[1].Invoke(context.Background(), "echo", []values.Value{values.Str("after")}); err != nil {
		t.Errorf("sibling call after the bad frame: %v", err)
	}
	st := mgr.Stats()
	if st.Dials != 1 || st.Deaths != 0 {
		t.Errorf("manager stats = %+v: a bad frame must not kill the session", st)
	}
	if mgr.peek("sim://server") == nil {
		t.Fatal("session gone after bad frame")
	}
	if st.BadFrames != 1 {
		t.Errorf("SessionStats.BadFrames = %d, want 1", st.BadFrames)
	}
	// The count belongs to the manager, so it outlives the session.
	for _, b := range bindings {
		b.Close()
	}
	if st := mgr.Stats(); st.Open != 0 || st.BadFrames != 1 {
		t.Errorf("after the session closed: %+v, want Open 0 and BadFrames 1", st)
	}
}

func TestRelocationMovesWholeSessionUnderLoad(t *testing.T) {
	// 8 bindings share one session to server A while invoking under load;
	// the interface migrates to server B. Each binding's next call at A
	// draws CodeNoSuchInterface, re-resolves and replays at B; the session
	// to A closes when its last binding has left (nothing kills it), and
	// the replay guard at B sees no sequence regressions (no ERR_REPLAY
	// terminations).
	n := netsim.New(4)
	mkServer := func(host string) (*Server, *echoServant) {
		l, err := n.Listen(naming.Endpoint("sim://" + host))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(l, ServerConfig{ReplayGuard: true})
		srv.Start()
		t.Cleanup(func() { srv.Close() })
		return srv, &echoServant{}
	}
	srvA, servantA := mkServer("alpha")
	srvB, servantB := mkServer("beta")

	loc := newFakeLocator()
	const nb = 8
	ids := make([]naming.InterfaceID, nb)
	for i := range ids {
		ids[i] = ifaceID(uint64(1000 + i))
		if err := srvA.Register(ids[i], nil, servantA); err != nil {
			t.Fatal(err)
		}
		loc.set(naming.InterfaceRef{ID: ids[i], Endpoint: "sim://alpha"})
	}

	mgr := NewSessionManager(n)
	bindings := make([]*Binding, nb)
	for i := range bindings {
		ref, _ := loc.Lookup(ids[i])
		b, err := Bind(ref, BindConfig{
			Sessions: mgr,
			Locator:  loc,
			Policy:   policy.RetryPolicy{MaxAttempts: 9, AttemptTimeout: time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		bindings[i] = b
	}

	stop := make(chan struct{})
	var calls, replayErrs atomic.Uint64
	var wg sync.WaitGroup
	for i, b := range bindings {
		wg.Add(1)
		go func(i int, b *Binding) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				want := fmt.Sprintf("b%d-%d", i, j)
				term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str(want)})
				if err != nil {
					if IsRemote(err, CodeReplay) {
						replayErrs.Add(1)
					}
					t.Errorf("binding %d call %d: %v", i, j, err)
					return
				}
				if got, _ := res[0].AsString(); term != "OK" || got != want {
					t.Errorf("binding %d: misrouted %q/%q", i, term, got)
					return
				}
				calls.Add(1)
			}
		}(i, b)
	}

	waitFor(t, func() bool { return calls.Load() > 50 })
	// Migrate: register everything at beta, publish the new epoch, then
	// withdraw from alpha (calls landing at alpha now draw
	// CodeNoSuchInterface, the relocation signal).
	for _, id := range ids {
		if err := srvB.Register(id, nil, servantB); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		loc.move(id, "sim://beta")
		srvA.Unregister(id)
	}
	// Let the fleet run on the new endpoint for a while, until every
	// binding has made a call there and the session to alpha has closed: a
	// binding the scheduler starved may not have called since the move.
	moved := calls.Load()
	waitFor(t, func() bool {
		for _, b := range bindings {
			if b.Ref().Endpoint != "sim://beta" {
				return false
			}
		}
		return calls.Load() > moved+200 && mgr.Stats().Open == 1
	})
	close(stop)
	wg.Wait()

	if replayErrs.Load() != 0 {
		t.Errorf("replay guard rejections after migration = %d, want 0", replayErrs.Load())
	}
	if st := srvB.Stats(); st.Sessions != 1 {
		t.Errorf("server B sessions = %d, want 1 (whole fleet on one session)", st.Sessions)
	}
	if st := mgr.Stats(); st.Open != 1 {
		t.Errorf("manager open sessions = %d, want 1 after migration", st.Open)
	}
	for i, b := range bindings {
		if got := b.Ref().Endpoint; got != "sim://beta" {
			t.Errorf("binding %d still at %s", i, got)
		}
	}
}

// TestPipelinedBindingRelocatesWithCallsInFlight: one binding has three
// calls inside the servant at A when the interface moves to B, and eight
// more start after the move. The first to draw CodeNoSuchInterface moves
// the binding to B; the others follow it there although their own lookup
// finds nothing newer than the binding already holds, and the session to A
// stays up until the three calls still pending on it are answered, so
// every call succeeds on its first transmission and runs once.
func TestPipelinedBindingRelocatesWithCallsInFlight(t *testing.T) {
	n := netsim.New(6)
	mkServer := func(host string) *Server {
		l, err := n.Listen(naming.Endpoint("sim://" + host))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(l, ServerConfig{ReplayGuard: true})
		srv.Start()
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	srvA, srvB := mkServer("alpha"), mkServer("beta")
	id := ifaceID(31)
	var entered atomic.Int64
	release := make(chan struct{})
	if err := srvA.Register(id, nil, HandlerFunc(
		func(_ context.Context, _ string, args []values.Value) (string, []values.Value, error) {
			entered.Add(1)
			<-release
			return "OK", args, nil
		})); err != nil {
		t.Fatal(err)
	}
	servantB := &echoServant{}
	loc := newFakeLocator()
	loc.set(naming.InterfaceRef{ID: id, Endpoint: "sim://alpha"})
	ref, _ := loc.Lookup(id)
	mgr := NewSessionManager(n)
	b, err := Bind(ref, BindConfig{Sessions: mgr, Locator: loc}) // one attempt: nothing is retried
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		want := fmt.Sprintf("call-%d", i)
		term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str(want)})
		if err != nil {
			t.Errorf("call %d: %v", i, err)
			return
		}
		if got, _ := res[0].AsString(); term != "OK" || got != want {
			t.Errorf("call %d = %q %q", i, term, got)
		}
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go call(i)
	}
	waitFor(t, func() bool { return entered.Load() == 3 })
	if err := srvB.Register(id, nil, servantB); err != nil {
		t.Fatal(err)
	}
	loc.move(id, "sim://beta")
	srvA.Unregister(id)
	for i := 3; i < 11; i++ {
		wg.Add(1)
		go call(i)
	}
	waitFor(t, func() bool { return servantB.invokedCount() == 8 })
	if got := srvA.Stats().Open; got != 1 {
		t.Errorf("A serves %d sessions with three calls pending, want 1", got)
	}
	close(release)
	wg.Wait()

	if got := entered.Load(); got != 3 {
		t.Errorf("A ran %d calls, want 3", got)
	}
	if st := b.Stats(); st.Retries != 0 {
		t.Errorf("binding retried %d times: a session was killed under its calls", st.Retries)
	}
	waitFor(t, func() bool { return srvA.Stats().Open == 0 }) // its last call answered, A's session closes
}

func TestProbeSingleFlight(t *testing.T) {
	// 8 bindings probing concurrently cost one heartbeat on the wire; the
	// rest coalesce onto it, and every binding's stats surface the probe.
	n := netsim.New(5)
	lat := netsim.LinkProfile{Latency: 25 * time.Millisecond}
	n.SetLink("client", "server", lat)
	n.SetLink("server", "client", lat)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ServerConfig{})
	srv.Start()
	t.Cleanup(func() { srv.Close() })

	mgr := NewSessionManager(n)
	const nb = 8
	bindings := make([]*Binding, nb)
	for i := range bindings {
		b, err := Bind(naming.InterfaceRef{ID: ifaceID(1), Endpoint: "sim://server"},
			BindConfig{Sessions: mgr, Policy: policy.RetryPolicy{AttemptTimeout: 2 * time.Second}})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		bindings[i] = b
	}
	// Establish the session first so the probes race only each other, not
	// the single-flight dial.
	if err := bindings[0].Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := mgr.Stats()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, b := range bindings {
		wg.Add(1)
		go func(b *Binding) {
			defer wg.Done()
			<-start
			if err := b.Probe(context.Background()); err != nil {
				t.Errorf("probe: %v", err)
			}
		}(b)
	}
	close(start)
	wg.Wait()

	st := mgr.Stats()
	sent := st.ProbesSent - first.ProbesSent
	coalesced := st.ProbesCoalesced - first.ProbesCoalesced
	if sent != 1 || coalesced != nb-1 {
		t.Errorf("probes sent=%d coalesced=%d, want 1/%d (one heartbeat for the fleet)",
			sent, coalesced, nb-1)
	}
	for i, b := range bindings {
		if b.Stats().LastProbe.IsZero() {
			t.Errorf("binding %d LastProbe is zero after shared probe", i)
		}
	}
}

func TestSingleFlightDial(t *testing.T) {
	// All bindings racing to first use share one dial.
	env, mgr, bindings := sharedEnv(t, ServerConfig{}, 8, BindConfig{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, b := range bindings {
		wg.Add(1)
		go func(b *Binding) {
			defer wg.Done()
			<-start
			if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")}); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}(b)
	}
	close(start)
	wg.Wait()
	if st := mgr.Stats(); st.Dials != 1 {
		t.Errorf("dials = %d, want 1 (single-flight)", st.Dials)
	}
	if st := env.server.Stats(); st.Sessions != 1 {
		t.Errorf("server sessions = %d, want 1", st.Sessions)
	}
}
