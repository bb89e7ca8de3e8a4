package netsim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func chaosScript() Script {
	return Script{
		{At: 10 * time.Millisecond, Fault: Fault{Kind: FaultCrash, A: "n3"}},
		{At: 20 * time.Millisecond, Fault: Fault{Kind: FaultPartition, A: "n1", B: "n2"}},
		{At: 30 * time.Millisecond, Fault: Fault{Kind: FaultLink, A: "n1", B: "n3",
			Profile: LinkProfile{Latency: 5 * time.Millisecond}}},
		{At: 40 * time.Millisecond, Fault: Fault{Kind: FaultRestart, A: "n3"}},
		{At: 50 * time.Millisecond, Fault: Fault{Kind: FaultHeal, A: "n1", B: "n2"}},
		{At: 50 * time.Millisecond, Fault: Fault{Kind: FaultLinkClear, A: "n1", B: "n3"}},
		{At: 60 * time.Millisecond, Fault: Fault{Kind: FaultCrash, A: "n4"}},
	}
}

// TestChaosDeterminism: one script gives one timeline, byte for byte,
// however the clock is stepped: each fault at its offset, on the hosts it
// names, equal offsets in script order.
func TestChaosDeterminism(t *testing.T) {
	run := func(steps ...time.Duration) string {
		var hooked []string
		c := NewChaos(New(1), ChaosConfig{
			Crash:   func(h string) error { hooked = append(hooked, "crash "+h); return nil },
			Restart: func(h string) error { hooked = append(hooked, "restart "+h); return nil },
		}, chaosScript())
		for _, at := range steps {
			c.Advance(at)
		}
		if !c.Done() {
			t.Fatal("script not exhausted")
		}
		if got := strings.Join(hooked, ", "); got != "crash n3, restart n3, crash n4" {
			t.Errorf("hooks ran %q", got)
		}
		return c.Timeline()
	}
	// Step the clock in uneven increments; only the fault offsets matter.
	a := run(5*time.Millisecond, 33*time.Millisecond, time.Second)
	if b := run(time.Second); a != b {
		t.Fatalf("timelines differ:\n%s\nvs\n%s", a, b)
	}
	const want = `t=+10ms crash n3
t=+20ms partition n1--n2
t=+30ms link n1--n3
t=+40ms restart n3
t=+50ms heal n1--n2
t=+50ms link-clear n1--n3
t=+60ms crash n4
`
	if a != want {
		t.Fatalf("timeline:\n%s\nwant:\n%s", a, want)
	}
}

// TestCrashHostSeversAndFreesAddress: a crash closes the listener and
// the host's established connections, and the address is immediately
// reusable; closing the stale listener handle afterwards must not tear
// down the new listener.
func TestCrashHostSeversAndFreesAddress(t *testing.T) {
	n := New(1)
	old, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan Conn, 1)
	go func() {
		c, err := old.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := n.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	<-accepted

	n.CrashHost("server")
	if _, err := conn.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv on severed conn = %v, want ErrClosed", err)
	}
	if err := conn.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on severed conn = %v, want ErrClosed", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if _, err := n.Dial(ctx, "sim://server"); !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("dial to crashed host = %v, want ErrNoSuchHost", err)
	}
	cancel()

	// Restart: the address is free again.
	fresh, err := n.Listen("sim://server")
	if err != nil {
		t.Fatalf("re-listen after crash: %v", err)
	}
	// A stale Close of the pre-crash handle must not evict the fresh one.
	old.Close()
	go func() {
		c, err := fresh.Accept()
		if err == nil {
			c.Close()
		}
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	c2, err := n.Dial(ctx2, "sim://server")
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	c2.Close()
	fresh.Close()
	if _, err := n.Listen("sim://server"); err != nil {
		t.Fatalf("listen after full teardown: %v", err)
	}
}

// TestDelayedConnNoGoroutineLeak: closing a connection whose link has a
// latency profile releases its delivery goroutine even mid-sleep.
func TestDelayedConnNoGoroutineLeak(t *testing.T) {
	n := New(1)
	n.SetLink("client", "server", LinkProfile{Latency: 10 * time.Second})
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_ = c
		}
	}()
	before := leakcheck.Now()
	for i := 0; i < 8; i++ {
		conn, err := n.Dial(context.Background(), "sim://server")
		if err != nil {
			t.Fatal(err)
		}
		// Force the delayed path to spin up its delivery goroutine, then
		// close with the 10s sleep still pending.
		if err := conn.Send([]byte("stuck")); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	leakcheck.Check(t, before, 1, 2*time.Second)
}

// TestChaosRealTimeRun: the wall-clock driver applies the script and
// Stop is safe both mid-run and after exhaustion.
func TestChaosRealTimeRun(t *testing.T) {
	n := New(1)
	c := NewChaos(n, ChaosConfig{}, Script{
		{At: 5 * time.Millisecond, Fault: Fault{Kind: FaultPartition, A: "x", B: "y"}},
		{At: 15 * time.Millisecond, Fault: Fault{Kind: FaultHeal, A: "x", B: "y"}},
	})
	c.Start()
	deadline := time.Now().Add(2 * time.Second)
	for !c.Done() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	if !c.Done() {
		t.Fatalf("script incomplete: %s", c.Timeline())
	}
	if n.partitioned("x", "y") {
		t.Fatal("partition not healed")
	}
	evs := c.Events()
	if len(evs) != 2 || evs[0].Kind != FaultPartition || evs[1].Kind != FaultHeal {
		t.Fatalf("events = %v", evs)
	}
}
