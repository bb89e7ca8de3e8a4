package odp

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/leakcheck"
)

// TestHealthDetectsAndRecovers is the facade-level loop: a watched node
// crashes, the detector's transitions flow over TopicLiveness, the
// recovery controller runs the node's plan, the node "restarts"
// (re-listens), and the plan's heal hook runs — all through the bus, no
// direct detector→controller coupling.
func TestHealthDetectsAndRecovers(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	s, err := New(Config{
		Seed:       404,
		Management: true,
		Recovery:   &health.ControllerConfig{},
		Health: &health.Config{
			Interval:     time.Millisecond,
			MinTimeout:   5 * time.Millisecond,
			SuspectAfter: 2,
			DeadAfter:    4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Mgmt()

	if _, err := s.CreateNode("n1"); err != nil {
		t.Fatal(err)
	}

	var deaths, heals atomic.Int64
	ctl := s.Recovery()
	if s.Detector() == nil || ctl == nil {
		t.Fatal("accessors returned nil for configured modes")
	}
	ctl.SetPlan("n1", health.Plan{
		OnDead:  func(context.Context, string) error { deaths.Add(1); return nil },
		OnAlive: func(context.Context, string) error { heals.Add(1); return nil },
	})

	plain := NewSystem(1)
	defer plain.Close()
	if _, err := plain.CreateNode("n1"); err != nil {
		t.Fatal(err)
	}
	if err := plain.WatchNode("n1"); err == nil {
		t.Fatal("WatchNode without Config.Health must fail")
	}
	if err := s.WatchNode("n1"); err != nil {
		t.Fatal(err)
	}

	waitOdp(t, "warm", func() bool {
		st, _, ok := s.Detector().State("n1")
		return ok && st == health.Alive
	})

	// Crash at the transport level: the listener dies, dial probes fail.
	s.Net.CrashHost("n1")
	waitOdp(t, "failover plan ran", func() bool { return deaths.Load() == 1 })
	state := func() string { return dumpValues(m.Registry.Dump(), nil)["health.n1.state"] }
	if g := state(); g != "2" {
		t.Fatalf("health.n1.state gauge = %s, want 2 (dead)", g)
	}

	// "Restart" the process: listen again; probes succeed, plan heals.
	if _, err := s.Net.Listen("sim://n1"); err != nil {
		t.Fatal(err)
	}
	waitOdp(t, "heal plan ran", func() bool { return heals.Load() == 1 })
	waitOdp(t, "alive gauge", func() bool { return state() == "0" })
	if st := ctl.Stats(); st.Failures != 0 {
		t.Fatalf("controller failures = %d, want 0", st.Failures)
	}
}

func waitOdp(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
