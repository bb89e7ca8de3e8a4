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
)

// TestSessionDeathStorm: 64 bindings spread across 8 nodes share one
// session manager with a breaker set; 4 nodes are killed mid-flight.
// The storm must stay contained: each dead endpoint's breaker opens
// exactly once and every binding to it fails fast from then on, redials
// stay bounded (no thundering redial herd — the breaker gates the wire,
// the policy's backoff paces what little gets through), and bindings to
// the surviving nodes never see a single error.
func TestSessionDeathStorm(t *testing.T) {
	const (
		hosts    = 8
		perHost  = 8
		deadN    = 4
		warmup   = 50 * time.Millisecond
		stormFor = 300 * time.Millisecond
	)
	net := netsim.New(13)
	mgr := NewSessionManager(net)
	defer mgr.Close()
	bs := policy.NewBreakerSet(policy.BreakerConfig{
		ConsecutiveFailures: 3,
		OpenFor:             time.Hour, // stays open for the test's lifetime
	})
	mgr.SetBreakers(bs)

	servers := make([]*Server, hosts)
	for i := 0; i < hosts; i++ {
		l, err := net.Listen(naming.Endpoint(fmt.Sprintf("sim://s%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(l, ServerConfig{ReplayGuard: true})
		if err := srv.Register(ifaceID(uint64(200+i)), nil, &echoServant{}); err != nil {
			t.Fatal(err)
		}
		srv.Start()
		servers[i] = srv
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	pol := policy.RetryPolicy{
		MaxAttempts:    2,
		AttemptTimeout: 100 * time.Millisecond,
		BaseBackoff:    5 * time.Millisecond,
		Seed:           13,
	}
	bindings := make([]*Binding, 0, hosts*perHost)
	for i := 0; i < hosts; i++ {
		for j := 0; j < perHost; j++ {
			b, err := Bind(naming.InterfaceRef{
				ID:       ifaceID(uint64(200 + i)),
				Endpoint: naming.Endpoint(fmt.Sprintf("sim://s%d", i)),
			}, BindConfig{Sessions: mgr, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			bindings = append(bindings, b)
		}
	}

	// The workload: every binding invokes in a loop until told to stop,
	// tallying per-host successes and errors.
	var (
		okByHost  [hosts]atomic.Int64
		errByHost [hosts]atomic.Int64
		badErrs   atomic.Int64 // errors outside the published taxonomy
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	for idx, b := range bindings {
		host := idx / perHost
		wg.Add(1)
		go func(host int, b *Binding) {
			defer wg.Done()
			arg := []values.Value{values.Str("x")}
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				_, _, err := b.Invoke(ctx, "Echo", arg)
				cancel()
				if err == nil {
					okByHost[host].Add(1)
				} else {
					errByHost[host].Add(1)
					if !errors.Is(err, ErrDisconnected) &&
						!errors.Is(err, policy.ErrCircuitOpen) &&
						!errors.Is(err, ErrAttemptTimeout) &&
						!errors.Is(err, context.DeadlineExceeded) {
						badErrs.Add(1)
						t.Errorf("host s%d: unclassified error %v", host, err)
					}
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(host, b)
	}

	time.Sleep(warmup)
	dialsBefore := mgr.Stats().Dials
	for i := 0; i < deadN; i++ {
		net.CrashHost(fmt.Sprintf("s%d", i))
		servers[i].Close()
	}
	time.Sleep(stormFor)
	close(stop)
	wg.Wait()

	// Survivors never failed.
	for i := deadN; i < hosts; i++ {
		if n := errByHost[i].Load(); n != 0 {
			t.Errorf("surviving host s%d saw %d errors", i, n)
		}
		if okByHost[i].Load() == 0 {
			t.Errorf("surviving host s%d did no work", i)
		}
	}
	// Each dead endpoint's breaker is open and tripped exactly once —
	// 16 bindings' worth of failures collapsed into one transition.
	breakers := bs.Snapshot()
	for i := 0; i < deadN; i++ {
		st, minted := breakers[fmt.Sprintf("sim://s%d", i)]
		if !minted {
			t.Fatalf("no breaker minted for dead host s%d", i)
		}
		if st.State != policy.Open {
			t.Errorf("dead host s%d breaker = %v, want open", i, st.State)
		}
		if st.Opens != 1 {
			t.Errorf("dead host s%d breaker opened %d times, want exactly 1", i, st.Opens)
		}
		if st.Rejected == 0 {
			t.Errorf("dead host s%d breaker never rejected a call — bindings kept dialling", i)
		}
		if errByHost[i].Load() == 0 {
			t.Errorf("dead host s%d reported no errors; kill happened too late?", i)
		}
	}
	// Redials stay bounded: the single-flight dial coalesces each dead
	// session's reconnect attempts and the breaker cuts them off after
	// ConsecutiveFailures, so the storm adds at most a handful of dial
	// attempts per dead host — nothing like 16 bindings × retries.
	st := mgr.Stats()
	added := st.Dials - dialsBefore
	if maxAdded := uint64(deadN * 8); added > maxAdded {
		t.Errorf("storm added %d dial attempts, want ≤ %d (breaker+single-flight must bound redials)",
			added, maxAdded)
	}
	if st.Deaths < deadN {
		t.Errorf("session deaths = %d, want ≥ %d (one per killed node)", st.Deaths, deadN)
	}
}
