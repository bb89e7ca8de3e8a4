package channel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/values"
	"repro/internal/wire"
)

// TestReplayWindowVerdicts pins the guard as a window over correlation
// distance: an unseen id within the window (128) below the high-water mark
// is fresh, anything older is rejected, and eviction follows distance from
// the mark, never arrival order.
func TestReplayWindowVerdicts(t *testing.T) {
	type step struct {
		correl uint64
		store  bool // record a reply frame after the check, as a finished call does
		want   guardVerdict
	}
	span := func(from, to uint64, want guardVerdict) []step {
		var s []step
		for c := from; c <= to; c++ {
			s = append(s, step{correl: c, want: want})
		}
		return s
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"unseen below the mark is fresh, once", []step{
			{10, false, guardFresh}, {9, false, guardFresh}, {8, false, guardFresh},
			{9, false, guardInFlight},
		}},
		{"older than the window is rejected", []step{
			{200, false, guardFresh},
			{72, false, guardReplayReject}, // 200-128: just outside
			{73, false, guardFresh},        // just inside
		}},
		// The window is 128 ids wide: the lowest it holds is high-127.
		{"the oldest id in the window is still answered from the cache", append(append(
			[]step{{373, true, guardFresh}},
			span(374, 500, guardFresh)...),
			step{373, false, guardReplayCached}, // 500-127
			step{501, false, guardFresh},
			step{373, false, guardReplayReject}, // 501-128
		)},
		{"a jump past the window forgets the old one", []step{
			{5, true, guardFresh}, {1000, false, guardFresh},
			{5, false, guardReplayReject},
		}},
		// With arrival-order eviction the 129th arrival (501) evicted the
		// first (500) while it was still inside the window, and a replay of
		// 500 re-executed.
		{"eviction is by distance, not arrival order", append(append(
			[]step{{500, true, guardFresh}},
			span(373, 499, guardFresh)...),
			step{501, false, guardFresh},
			step{500, false, guardReplayCached},
			step{374, false, guardInFlight},
			step{373, false, guardReplayReject},
		)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewServer(nil, ServerConfig{ReplayGuard: true})
			for i, st := range c.steps {
				m := &wire.Message{Kind: wire.Call, BindingID: 7, Correlation: st.correl}
				if got, _ := s.guardCheck(m); got != st.want {
					t.Fatalf("step %d (correlation %d): verdict = %v, want %v", i, st.correl, got, st.want)
				}
				if st.store && !s.guardStore(m, []byte{1}, true) {
					t.Fatalf("step %d (correlation %d): reply not retained", i, st.correl)
				}
			}
			if n := len(s.guards[7].slots); n > 128 {
				t.Fatalf("guard tracks %d correlations, window is 128", n)
			}
		})
	}
}

// TestReplayGuardPipelinedBinding drives one binding from 8 goroutines
// against a guarded server over loopback TCP: every call executes exactly
// once and none is refused as a replay, because the binding queues its
// frames in the order it drew their ids (a caller descheduled between the
// two used to let its siblings run hundreds of ids ahead). Afterwards a
// captured frame inside the window is answered from the cache without
// executing, and one older than the window is rejected.
func TestReplayGuardPipelinedBinding(t *testing.T) {
	tcp := netsim.NewTCP()
	l, err := tcp.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ServerConfig{ReplayGuard: true})
	servant := &echoServant{}
	id := ifaceID(77)
	if err := srv.Register(id, echoType(), servant); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	ref := naming.InterfaceRef{ID: id, TypeName: "Echo", Endpoint: l.Endpoint()}
	b, err := Bind(ref, BindConfig{Transport: tcp})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const callers, perCaller = 8, 2500
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				want := fmt.Sprintf("g%d-%d", g, i)
				term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str(want)})
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", g, i, err)
					return
				}
				if got, _ := res[0].AsString(); term != "OK" || got != want {
					errs <- fmt.Errorf("caller %d call %d: %q %q, want OK %q", g, i, term, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	const calls = callers * perCaller
	if got := servant.invokedCount(); got != calls {
		t.Fatalf("servant executed %d times for %d calls", got, calls)
	}

	// The binding has used correlations 1..calls. Replay two of them on a
	// connection of the attacker's own.
	conn, err := tcp.Dial(context.Background(), l.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	replay := func(correl uint64) *wire.Message {
		t.Helper()
		m := &wire.Message{
			Kind: wire.Call, BindingID: b.bindingID, Correlation: correl,
			Target: id, Operation: "Echo", Args: []values.Value{values.Str("replayed")},
		}
		frame, err := m.EncodeAppend(nil, wire.Canonical)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
		reply, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		rm, err := wire.Decode(reply)
		if err != nil {
			t.Fatal(err)
		}
		return rm
	}
	if rm := replay(calls - 5); rm.Kind != wire.Reply || rm.Termination != "OK" {
		t.Errorf("replay inside the window = %+v, want the cached reply", rm)
	} else if got, _ := rm.Args[0].AsString(); got == "replayed" {
		t.Error("replay inside the window was executed, not answered from the cache")
	}
	if rm := replay(calls - 128); rm.Kind != wire.ErrReply || rm.Termination != CodeReplay {
		t.Errorf("replay older than the window = %+v, want %s", rm, CodeReplay)
	}
	if got := servant.invokedCount(); got != calls {
		t.Errorf("replays executed the servant: %d executions for %d calls", got, calls)
	}
}

// TestReplayAnswerSurvivesSlotReuse replays correlation c while calls
// c+1…c+300 on the same binding carry the window past it twice over, so c's
// slot is reused while replays of c are being answered — on the connection
// the calls use, and on a second one. Every answer to a replay is c's
// original reply or CodeReplay, never another call's bytes, and every
// replay is counted.
func TestReplayAnswerSurvivesSlotReuse(t *testing.T) {
	for _, conns := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d connections", conns), func(t *testing.T) {
			env := newEnv(t, ServerConfig{ReplayGuard: true})
			const c, calls = 1000, 300
			call := func(correl uint64) []byte {
				m := &wire.Message{
					Kind: wire.Call, BindingID: 777, Correlation: correl, Target: env.ref.ID,
					Operation: "Echo", Args: []values.Value{values.Str(fmt.Sprintf("call-%d", correl))},
				}
				frame, err := m.EncodeAppend(nil, wire.Canonical)
				if err != nil {
					t.Fatal(err)
				}
				return frame
			}
			callConn, err := env.net.Dial(context.Background(), "sim://server")
			if err != nil {
				t.Fatal(err)
			}
			defer callConn.Close()
			replayConn := callConn
			if conns == 2 {
				if replayConn, err = env.net.Dial(context.Background(), "sim://server"); err != nil {
					t.Fatal(err)
				}
				defer replayConn.Close()
			}
			// One reader per connection checks every reply against the call
			// its correlation names.
			var cached, rejected, echoed atomic.Int64
			read := func(conn netsim.Conn) {
				for {
					frame, err := conn.Recv()
					if err != nil {
						return
					}
					m, err := wire.Decode(frame)
					if err != nil {
						t.Errorf("undecodable reply: %v", err)
						return
					}
					got := ""
					if len(m.Args) == 1 {
						got, _ = m.Args[0].AsString()
					}
					switch {
					case m.Kind == wire.ErrReply && m.Correlation == c && m.Termination == CodeReplay:
						rejected.Add(1)
					case m.Kind == wire.Reply && got == fmt.Sprintf("call-%d", m.Correlation):
						if m.Correlation == c {
							cached.Add(1)
						} else {
							echoed.Add(1)
						}
					default:
						t.Errorf("reply to %d = %v %q %q", m.Correlation, m.Kind, m.Termination, got)
					}
				}
			}
			go read(callConn)
			if conns == 2 {
				go read(replayConn)
			}
			replayed := int64(-1) // the first transmission of c is not a replay
			replay := func() {
				if err := replayConn.Send(call(c)); err != nil {
					t.Error(err)
				}
				replayed++
			}
			replay()
			waitFor(t, func() bool { return cached.Load() == 1 })
			replay() // before the race: answered from the slot
			waitFor(t, func() bool { return cached.Load() == 2 })
			done := make(chan struct{})
			go func() {
				defer close(done)
				for k := uint64(1); k <= calls; k++ {
					if err := callConn.Send(call(c + k)); err != nil {
						t.Error(err)
					}
				}
			}()
			for racing := true; racing; {
				select {
				case <-done:
					racing = false
				default:
					replay()
				}
			}
			waitFor(t, func() bool { return echoed.Load() == calls })
			replay() // after it: c is two windows behind the mark
			waitFor(t, func() bool { return cached.Load()-1+rejected.Load() == replayed })
			if cached.Load() < 2 || rejected.Load() < 1 {
				t.Errorf("%d replays answered from the slot, %d rejected: want both", cached.Load()-1, rejected.Load())
			}
			if got := env.server.Stats().Replays; int64(got) != replayed {
				t.Errorf("Replays = %d, sent %d", got, replayed)
			}
			if got := env.servant.invokedCount(); got != calls+1 {
				t.Errorf("servant executed %d times for %d calls", got, calls+1)
			}
		})
	}
}

// TestReplayGuardForgetsCallsThatNeverRan: a call answered
// CodeNoSuchInterface never reached a servant, so the guard does not
// remember that answer. When the same call (same binding, same correlation)
// follows its object back to a node the interface has returned to, it runs
// there once, and only its real reply is replayed from then on.
func TestReplayGuardForgetsCallsThatNeverRan(t *testing.T) {
	env := newEnv(t, ServerConfig{ReplayGuard: true})
	conn, err := env.net.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := (&wire.Message{
		Kind: wire.Call, BindingID: 5, Correlation: 1, Target: env.ref.ID,
		Operation: "Echo", Args: []values.Value{values.Str("hello")},
	}).EncodeAppend(nil, wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	call := func() *wire.Message {
		t.Helper()
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
		reply, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		m, err := wire.Decode(reply)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	env.server.Unregister(env.ref.ID) // the interface moved away
	if m := call(); m.Kind != wire.ErrReply || m.Termination != CodeNoSuchInterface {
		t.Fatalf("call to an absent interface = %v %q, want %s", m.Kind, m.Termination, CodeNoSuchInterface)
	}
	if err := env.server.Register(env.ref.ID, echoType(), env.servant); err != nil { // and came back
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ { // the run, then its replay from the window
		m := call()
		var got string
		if m.Kind == wire.Reply && len(m.Args) == 1 {
			got, _ = m.Args[0].AsString()
		}
		if got != "hello" {
			t.Errorf("transmission %d = %v %q %q, want the echo", i, m.Kind, m.Termination, got)
		}
	}
	if got := env.servant.invokedCount(); got != 1 {
		t.Errorf("servant executed %d times, want 1", got)
	}
}

// echoAllocs returns what one warmed-up Echo on b allocates. The count is
// process-wide, so it covers the server end too.
func echoAllocs(t *testing.T, b *Binding) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so allocation counts vary")
	}
	args := []values.Value{values.Str("the quick brown fox")}
	invoke := func() {
		if _, _, err := b.Invoke(context.Background(), "Echo", args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*int(replayWindow); i++ { // every replay slot has its buffer
		invoke()
	}
	return testing.AllocsPerRun(200, invoke)
}

// TestReplayGuardCostsNoAllocation: remembering a reply is a copy into the
// slot's own buffer and the frame goes back to the pool after the write, so
// a guarded round trip allocates what an unguarded one does.
func TestReplayGuardCostsNoAllocation(t *testing.T) {
	roundTrip := func(guard bool) float64 {
		env := newEnv(t, ServerConfig{ReplayGuard: guard})
		return echoAllocs(t, env.bind(t, BindConfig{Type: echoType()}))
	}
	if on, off := roundTrip(true), roundTrip(false); on != off {
		t.Errorf("round trip with the replay guard = %v allocs, without = %v", on, off)
	}
}

// TestE9DisabledInstrumentationAllocParity pins the management subsystem's
// contract that disabled instrumentation is a nil check: a guarded echo
// over the canonical codec with nil Instruments at both ends allocates 2
// per call at most. The same call with mgmt instruments is the positive
// control: it must allocate more, or a broken nil check could hide.
func TestE9DisabledInstrumentationAllocParity(t *testing.T) {
	echo := func(instrumented bool) float64 {
		scfg, bcfg := ServerConfig{ReplayGuard: true}, BindConfig{Codec: wire.Canonical}
		if instrumented {
			m := mgmt.New()
			scfg.Instruments, bcfg.Instruments = m.ChannelServer("e9"), m.ChannelClient("e9")
		}
		// A servant that hands its arguments back allocates nothing, so the
		// count is the channel's alone.
		env := newEnv(t, scfg)
		env.ref = refFor(ifaceID(9), "Echo")
		if err := env.server.Register(env.ref.ID, echoType(), HandlerFunc(
			func(_ context.Context, _ string, args []values.Value) (string, []values.Value, error) {
				return "OK", args, nil
			})); err != nil {
			t.Fatal(err)
		}
		return echoAllocs(t, env.bind(t, bcfg))
	}
	off, on := echo(false), echo(true)
	t.Run("instrumentation-off", func(t *testing.T) {
		if off > 2 {
			t.Errorf("uninstrumented echo = %v allocs/op, budget 2", off)
		}
	})
	t.Run("instrumentation-on", func(t *testing.T) {
		if on <= off {
			t.Errorf("instrumented echo = %v allocs/op, not more than uninstrumented %v: the control measures nothing", on, off)
		}
	})
}

// TestReplaySlotDropsLargeBuffer: a slot reuses its buffer for the next
// reply it records, but not one grown past replayKeep by a single large
// reply — that one is remembered, replayed, and let go with its slot.
func TestReplaySlotDropsLargeBuffer(t *testing.T) {
	s := NewServer(nil, ServerConfig{ReplayGuard: true})
	record := func(correl uint64, reply []byte) {
		t.Helper()
		m := &wire.Message{Kind: wire.Call, BindingID: 7, Correlation: correl}
		if v, _ := s.guardCheck(m); v != guardFresh {
			t.Fatalf("correlation %d: verdict %v", correl, v)
		}
		if !s.guardStore(m, reply, true) {
			t.Fatalf("correlation %d: reply not recorded", correl)
		}
	}
	large := make([]byte, 16*replayKeep)
	record(1, large)
	if v, got := s.guardCheck(&wire.Message{Kind: wire.Call, BindingID: 7, Correlation: 1}); v != guardReplayCached || len(got) != len(large) {
		t.Fatalf("replay of the large reply = %v, %d bytes", v, len(got))
	}
	record(1+replayWindow, []byte{1, 2, 3}) // the same slot, one window on
	if got := cap(s.guards[7].slot(1).reply); got > replayKeep {
		t.Errorf("slot keeps a %d-byte buffer for a 3-byte reply, bound %d", got, replayKeep)
	}
}
