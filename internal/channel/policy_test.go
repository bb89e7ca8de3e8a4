package channel

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/values"
)

func refTo(ep string) naming.InterfaceRef {
	return naming.InterfaceRef{ID: ifaceID(99), TypeName: "Echo", Endpoint: naming.Endpoint(ep)}
}

// TestPolicyBudgetBoundsTotalTime is the regression test for the
// pre-policy bug: each retry re-armed a fresh full CallTimeout, so a call
// with MaxRetries=3 could block for 4× the configured timeout. Under a
// policy the budget bounds the whole interaction — attempts, backoff and
// relocations together.
func TestPolicyBudgetBoundsTotalTime(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	env.net.Partition("client", "server") // dials black-hole: every attempt times out
	b := env.bind(t, BindConfig{
		Type: echoType(),
		Policy: policy.RetryPolicy{
			MaxAttempts:    4,
			AttemptTimeout: 60 * time.Millisecond,
			Budget:         100 * time.Millisecond,
		},
	})
	start := time.Now()
	_, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("hi")})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected failure through a partition")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget exhaustion should surface the deadline, got %v", err)
	}
	// Legacy behavior would run 4 × 60ms = 240ms. The budget caps it.
	if elapsed >= 200*time.Millisecond {
		t.Fatalf("call took %v; budget of 100ms not enforced (legacy 4×timeout behavior?)", elapsed)
	}
}

// TestAttemptTimeoutSentinel: a per-attempt timeout is a distinct,
// retryable failure carrying the endpoint, matched with errors.Is.
func TestAttemptTimeoutSentinel(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	env.net.Partition("client", "server")
	b := env.bind(t, BindConfig{
		Type: echoType(),
		Policy: policy.RetryPolicy{
			MaxAttempts:    1,
			AttemptTimeout: 40 * time.Millisecond,
		},
	})
	_, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str("hi")})
	if !errors.Is(err, ErrAttemptTimeout) {
		t.Fatalf("want ErrAttemptTimeout, got %v", err)
	}
	if !strings.Contains(err.Error(), "sim://server") {
		t.Fatalf("attempt timeout should name the endpoint: %v", err)
	}
}

// TestPolicyBackoffPacesRetries: retries against a dead endpoint are
// paced by the policy's backoff instead of spinning.
func TestPolicyBackoffPacesRetries(t *testing.T) {
	n := netsim.New(1)
	b, err := Bind(refTo("sim://nowhere"), BindConfig{
		Transport: n,
		Policy: policy.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 30 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	start := time.Now()
	_, _, err = b.Invoke(context.Background(), "Echo", []values.Value{values.Str("hi")})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	// Two retries: backoffs of 30ms and 60ms. Zero-delay spinning would
	// return in microseconds.
	if elapsed < 80*time.Millisecond {
		t.Fatalf("3 attempts finished in %v; retries are not backed off", elapsed)
	}
	if got := b.Stats().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

// TestDialErrorTaxonomy: a dial failure keeps both the channel sentinel
// and the transport's cause visible to errors.Is.
func TestDialErrorTaxonomy(t *testing.T) {
	n := netsim.New(1)
	b, err := Bind(refTo("sim://nowhere"), BindConfig{Transport: n})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, _, err = b.Invoke(context.Background(), "Echo", nil)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	if !errors.Is(err, netsim.ErrNoSuchHost) {
		t.Fatalf("dial cause lost from the chain: %v", err)
	}
}

// TestBreakerFailFastShared: a breaker set attached to a shared session
// manager opens once for a dead endpoint and every binding to it then
// fails fast with ErrCircuitOpen — no further dials. After the
// cooling-off period one call probes the (revived) endpoint and
// re-closes the breaker for everyone.
func TestBreakerFailFastShared(t *testing.T) {
	n := netsim.New(1)
	mgr := NewSessionManager(n)
	defer mgr.Close()
	bs := policy.NewBreakerSet(policy.BreakerConfig{
		ConsecutiveFailures: 2,
		OpenFor:             50 * time.Millisecond,
	})
	mgr.SetBreakers(bs)

	pol := policy.RetryPolicy{MaxAttempts: 1, AttemptTimeout: 100 * time.Millisecond}
	ref := refTo("sim://server")
	b1, err := Bind(ref, BindConfig{Sessions: mgr, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	b2, err := Bind(ref, BindConfig{Sessions: mgr, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	// Two failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, _, err := b1.Invoke(context.Background(), "Echo", nil); err == nil {
			t.Fatal("invoke against a dead host succeeded")
		}
	}
	if st := bs.For("sim://server").State(); st != policy.Open {
		t.Fatalf("breaker state = %v, want open", st)
	}
	dialsWhenOpen := mgr.Stats().Dials

	// The sibling binding fails fast without touching the wire.
	_, _, err = b2.Invoke(context.Background(), "Echo", nil)
	if !errors.Is(err, policy.ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if got := mgr.Stats().Dials; got != dialsWhenOpen {
		t.Fatalf("open breaker still dialled: %d -> %d", dialsWhenOpen, got)
	}

	// Bring the endpoint up; after cooling off one probe call re-closes.
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, ServerConfig{})
	if err := srv.Register(ifaceID(99), echoType(), &echoServant{}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	time.Sleep(60 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, err = b2.Invoke(context.Background(), "Echo", []values.Value{values.Str("hi")})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := bs.For("sim://server").State(); st != policy.Closed {
		t.Fatalf("breaker state after recovery = %v, want closed", st)
	}
	if stats := bs.For("sim://server").Stats(); stats.Opens != 1 {
		t.Fatalf("breaker opened %d times, want exactly 1", stats.Opens)
	}
}

// TestOneWayRecoveryReachesManagement: announcements go through the same
// recovery loop as interrogations, so their retries and relocations are
// counted in the session manager's stats — what Management reads — not
// only in BindingStats.
func TestOneWayRecoveryReachesManagement(t *testing.T) {
	n := netsim.New(1)
	id := ifaceID(31)
	servants := map[string]*echoServant{}
	for _, host := range []string{"alpha", "beta"} {
		l, err := n.Listen(naming.Endpoint("sim://" + host))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(l, ServerConfig{})
		servants[host] = &echoServant{}
		if err := srv.Register(id, echoType(), servants[host]); err != nil {
			t.Fatal(err)
		}
		srv.Start()
		defer srv.Close()
	}
	loc := newFakeLocator()
	ref := naming.InterfaceRef{ID: id, TypeName: "Echo", Endpoint: "sim://alpha"}
	loc.set(ref)
	b, err := Bind(ref, BindConfig{
		Transport: n,
		Locator:   loc,
		Type:      echoType(),
		Policy:    policy.RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	notify := func(msg string) {
		t.Helper()
		if err := b.Announce(context.Background(), "Notify", []values.Value{values.Str(msg)}); err != nil {
			t.Fatalf("Announce %q: %v", msg, err)
		}
	}
	notified := func(host string) int {
		s := servants[host]
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.notified)
	}
	notify("before")
	waitFor(t, func() bool { return notified("alpha") == 1 })

	// Kill the session under the binding and move the interface.
	loc.move(id, "sim://beta")
	n.CrashHost("alpha")
	notify("after")
	waitFor(t, func() bool { return notified("beta") == 1 })

	st := b.Stats()
	if st.Retries == 0 || st.Relocations == 0 {
		t.Fatalf("announcement crossed a killed session without recovery: %+v", st)
	}
	ss := b.sessions.Stats()
	if ss.Retries != st.Retries || ss.Relocations != st.Relocations || ss.Invocations != st.Invocations {
		t.Errorf("session manager counts %+v, the binding %+v", ss, st)
	}
}

// TestBarePolicySemantics pins what a policy with only an attempt count and
// a per-attempt timeout means — the configuration BindConfig once spelled
// MaxRetries/CallTimeout: retries are immediate, every attempt gets a fresh
// full timeout, no budget spans them, and an attempt timeout is retryable.
func TestBarePolicySemantics(t *testing.T) {
	const timeout = 40 * time.Millisecond
	cases := []struct {
		name      string
		attempts  int
		partition bool // black-hole the link: every attempt runs out its timeout
		wantErr   error
		retries   uint64
		atLeast   time.Duration
		atMost    time.Duration
	}{
		{"one attempt times out once", 1, true, ErrAttemptTimeout, 0, timeout, 3 * timeout},
		{"each attempt gets a fresh full timeout, unbudgeted", 3, true, ErrAttemptTimeout, 2, 3 * timeout, 6 * timeout},
		{"retries against a dead host are immediate", 4, false, ErrDisconnected, 3, 0, timeout},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(t, ServerConfig{})
			ref := env.ref
			if c.partition {
				env.net.Partition("client", "server")
			} else {
				ref.Endpoint = "sim://nowhere"
			}
			b, err := Bind(ref, BindConfig{
				Transport: env.net,
				Policy:    policy.RetryPolicy{MaxAttempts: c.attempts, AttemptTimeout: timeout},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			start := time.Now()
			_, _, err = b.Invoke(context.Background(), "Echo", []values.Value{values.Str("hi")})
			elapsed := time.Since(start)
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if got := b.Stats().Retries; got != c.retries {
				t.Errorf("retries = %d, want %d", got, c.retries)
			}
			if elapsed < c.atLeast || elapsed > c.atMost {
				t.Errorf("took %v, want between %v and %v", elapsed, c.atLeast, c.atMost)
			}
		})
	}
}
