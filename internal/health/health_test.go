package health

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/mgmt"
	"repro/internal/policy"
)

// flakyProbe is a controllable probe: failing decides the outcome, rtt
// the reported round trip (no real sleeping — the detector judges the
// reported value against its adaptive timeout).
type flakyProbe struct {
	failing atomic.Bool
	rtt     atomic.Int64
}

func (p *flakyProbe) fn() ProbeFunc {
	return func(ctx context.Context) (time.Duration, error) {
		if p.failing.Load() {
			return 0, errors.New("probe: endpoint unreachable")
		}
		return time.Duration(p.rtt.Load()), nil
	}
}

// transitionLog collects transitions in order.
type transitionLog struct {
	mu  sync.Mutex
	seq []Transition
}

func (l *transitionLog) add(t Transition) {
	l.mu.Lock()
	l.seq = append(l.seq, t)
	l.mu.Unlock()
}

func (l *transitionLog) snapshot() []Transition {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Transition, len(l.seq))
	copy(out, l.seq)
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDetectorCrashTransitions(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	probe := &flakyProbe{}
	probe.rtt.Store(int64(time.Millisecond))
	log := &transitionLog{}
	d := New(Config{
		Interval:     time.Millisecond,
		SuspectAfter: 2,
		DeadAfter:    4,
		OnTransition: log.add,
	})
	defer d.Close()
	if err := d.Watch("m0", probe.fn()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first success", func() bool {
		st, _, ok := d.State("m0")
		return ok && st == Alive
	})

	probe.failing.Store(true)
	waitFor(t, "dead", func() bool {
		st, _, _ := d.State("m0")
		return st == Dead
	})
	if _, susp, _ := d.State("m0"); susp != 1 {
		t.Fatalf("dead endpoint suspicion = %v, want 1", susp)
	}

	probe.failing.Store(false)
	// OnTransition runs after the new state is published, outside the
	// detector's locks, so State can read Alive before the log has the
	// transition: wait for the log itself.
	waitFor(t, "the recovery transition", func() bool {
		return slices.ContainsFunc(log.snapshot(), func(tr Transition) bool { return tr.To == Alive })
	})

	seq := log.snapshot()
	var states []State
	for _, tr := range seq {
		if tr.Endpoint != "m0" {
			t.Fatalf("transition for unexpected endpoint %q", tr.Endpoint)
		}
		states = append(states, tr.To)
	}
	want := []State{Suspect, Dead, Alive}
	if len(states) < len(want) {
		t.Fatalf("transitions %v, want at least %v", states, want)
	}
	for i, w := range want {
		if states[i] != w {
			t.Fatalf("transition %d = %v, want %v (full: %v)", i, states[i], w, states)
		}
	}
}

func TestDetectorRTTWindowDrivesSuspicion(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	probe := &flakyProbe{}
	probe.rtt.Store(int64(time.Millisecond))
	d := New(Config{
		Interval:     time.Millisecond,
		MinTimeout:   2 * time.Millisecond,
		SuspectAfter: 2,
		DeadAfter:    6,
	})
	defer d.Close()
	if err := d.Watch("wan", probe.fn()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "window warm", func() bool {
		for _, st := range d.Snapshot() {
			if st.Endpoint == "wan" && st.RTT > 0 && st.State == Alive {
				return true
			}
		}
		return false
	})

	// A latency regime shift: probes still "succeed" but report round
	// trips far beyond the adaptive timeout (4 × ~1ms window). The
	// detector must count them as misses and raise suspicion.
	probe.rtt.Store(int64(500 * time.Millisecond))
	waitFor(t, "suspect on slow probes", func() bool {
		st, susp, _ := d.State("wan")
		return st == Suspect && susp > 0
	})

	// Back to the old regime: suspicion resets.
	probe.rtt.Store(int64(time.Millisecond))
	waitFor(t, "alive again", func() bool {
		st, susp, _ := d.State("wan")
		return st == Alive && susp == 0
	})
}

// steppedProbe hands the test one probe at a time: each call announces
// itself on entered and then reports the round trip the test sends on rtt,
// so every sample is judged before the next is chosen.
type steppedProbe struct {
	entered chan struct{}
	rtt     chan time.Duration
	quit    chan struct{}
}

func (p *steppedProbe) fn() ProbeFunc {
	return func(context.Context) (time.Duration, error) {
		select {
		case p.entered <- struct{}{}:
		case <-p.quit:
			return 0, errors.New("probe: test over")
		}
		select {
		case d := <-p.rtt:
			return d, nil
		case <-p.quit:
			return 0, errors.New("probe: test over")
		}
	}
}

// TestDetectorAdaptiveTimeoutBounds pins the adaptive timeout's two bounds
// through reported round trips: a probe is a miss beyond 4× the smoothed
// RTT and not at it, and the smoothing window forgets a sample after
// exactly 32 newer ones.
func TestDetectorAdaptiveTimeoutBounds(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	p := &steppedProbe{entered: make(chan struct{}), rtt: make(chan time.Duration), quit: make(chan struct{})}
	d := New(Config{Interval: time.Microsecond, MinTimeout: 10 * time.Millisecond, SuspectAfter: 100, DeadAfter: 100})
	defer d.Close()
	defer close(p.quit)
	if err := d.Watch("wan", p.fn()); err != nil {
		t.Fatal(err)
	}
	// report feeds one round trip and returns the endpoint's status once
	// the detector has judged it (the next probe has begun).
	<-p.entered
	report := func(rtt time.Duration) EndpointStatus {
		p.rtt <- rtt
		<-p.entered
		return d.Snapshot()[0]
	}
	var st EndpointStatus
	for i := 0; i < 32; i++ {
		st = report(10 * time.Millisecond)
	}
	if st.RTT != 10*time.Millisecond || st.Misses != 0 {
		t.Fatalf("after 32×10ms: %+v, want RTT 10ms and no misses", st)
	}
	if st = report(41 * time.Millisecond); st.Misses != 1 {
		t.Fatalf("41ms against a 10ms window: misses = %d, want 1 (timeout is 4×RTT = 40ms)", st.Misses)
	}
	if st = report(40 * time.Millisecond); st.Misses != 0 {
		t.Fatalf("40ms against a 10ms window: misses = %d, want 0 (within 4×RTT)", st.Misses)
	}
	// The window now holds 31×10ms and, newest, one 40ms (a miss is not a
	// sample). 31 samples of 2ms leave only that 40ms of the old regime;
	// the 32nd pushes it out.
	for i := 0; i < 31; i++ {
		st = report(2 * time.Millisecond)
	}
	if want := (40 + 31*2) * time.Millisecond / 32; st.RTT != want {
		t.Fatalf("after 31 newer samples: RTT = %v, want %v (one old sample left)", st.RTT, want)
	}
	if st = report(2 * time.Millisecond); st.RTT != 2*time.Millisecond {
		t.Fatalf("after 32 newer samples: RTT = %v, want 2ms (old regime forgotten)", st.RTT)
	}
}

func TestDetectorPassiveObserve(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	probe := &flakyProbe{}
	probe.rtt.Store(int64(time.Millisecond))
	d := New(Config{
		Interval:     time.Hour, // only the immediate first probe fires
		SuspectAfter: 2,
		DeadAfter:    4,
	})
	defer d.Close()
	if err := d.Watch("m1", probe.fn()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first success", func() bool {
		st, _, ok := d.State("m1")
		return ok && st == Alive
	})

	// Application traffic reports failures: no active probe needed.
	for i := 0; i < 4; i++ {
		d.Observe("m1", 0, errors.New("invoke failed"))
	}
	if st, _, _ := d.State("m1"); st != Dead {
		t.Fatalf("state after 4 passive failures = %v, want dead", st)
	}
	d.Observe("m1", time.Millisecond, nil)
	if st, _, _ := d.State("m1"); st != Alive {
		t.Fatalf("state after passive success = %v, want alive", st)
	}
	// Unwatched endpoints are ignored, not created.
	d.Observe("ghost", 0, errors.New("x"))
	if _, _, ok := d.State("ghost"); ok {
		t.Fatal("Observe must not create endpoints")
	}
}

// TestDetectorStatsThroughManagement: Management reads the detector's
// per-endpoint Stats, so the gauges follow the state machine and an
// unwatched endpoint leaves the dump.
func TestDetectorStatsThroughManagement(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	m := mgmt.New()
	probe := &flakyProbe{}
	probe.failing.Store(true)
	d := New(Config{
		Interval:     time.Millisecond,
		SuspectAfter: 1,
		DeadAfter:    2,
	})
	defer d.Close()
	mgmt.Read(m, "health.", d.Stats)
	if err := d.Watch("m2", probe.fn()); err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) string {
		for _, line := range strings.Split(m.Registry.Dump(), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "gauge" && f[1] == name {
				return f[2]
			}
		}
		return ""
	}
	waitFor(t, "dead gauge", func() bool {
		return gauge("health.m2.state") == "2" && gauge("health.m2.suspicion") == "1000"
	})
	probe.failing.Store(false)
	waitFor(t, "alive gauge", func() bool {
		return gauge("health.m2.state") == "0" && gauge("health.m2.suspicion") == "0"
	})
	st := d.Stats()["m2"]
	if st.Transitions < 2 || st.Misses < 2 || st.Probes <= st.Misses || st.RTTNs.Count == 0 {
		t.Fatalf("m2 stats = %+v", st)
	}
	d.Unwatch("m2")
	if dump := m.Registry.Dump(); strings.Contains(dump, "health.m2.") {
		t.Fatalf("unwatched endpoint still shown:\n%s", dump)
	}
}

func TestTransitionValueRoundTrip(t *testing.T) {
	in := Transition{
		Endpoint:  "rep0",
		From:      Alive,
		To:        Dead,
		Suspicion: 1,
		RTT:       1500 * time.Microsecond,
		At:        time.Unix(12, 345),
	}
	out, err := TransitionFromValue(in.ToValue())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

func TestControllerRunsPlanOnTransitions(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	ctl := NewController(ControllerConfig{})
	defer ctl.Close()
	var deaths, heals, suspects atomic.Int64
	ctl.SetPlan("m0", Plan{
		OnSuspect: func(context.Context, string) error { suspects.Add(1); return nil },
		OnDead:    func(context.Context, string) error { deaths.Add(1); return nil },
		OnAlive:   func(context.Context, string) error { heals.Add(1); return nil },
	})

	probe := &flakyProbe{}
	probe.rtt.Store(int64(time.Millisecond))
	d := New(Config{
		Interval:     time.Millisecond,
		SuspectAfter: 2,
		DeadAfter:    4,
		OnTransition: ctl.Handle,
	})
	defer d.Close()
	if err := d.Watch("m0", probe.fn()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "warm", func() bool { st, _, ok := d.State("m0"); return ok && st == Alive })

	probe.failing.Store(true)
	waitFor(t, "failover ran", func() bool { return deaths.Load() == 1 })
	if suspects.Load() != 1 {
		t.Fatalf("suspect actions = %d, want 1", suspects.Load())
	}
	probe.failing.Store(false)
	waitFor(t, "heal ran", func() bool { return heals.Load() == 1 })

	st := ctl.Stats()
	if st.Actions != 3 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 3 actions, 0 failures", st)
	}
}

func TestControllerRetriesThenFails(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	var calls atomic.Int64
	ctl := NewController(ControllerConfig{RetryDelay: time.Millisecond})
	defer ctl.Close()
	ctl.SetFallbackPlan(Plan{
		OnDead: func(context.Context, string) error {
			calls.Add(1)
			return errors.New("still broken")
		},
	})
	ctl.Handle(Transition{Endpoint: "m9", From: Suspect, To: Dead})
	waitFor(t, "retries exhausted", func() bool { return ctl.Stats().Failures == 1 })
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

// TestControllerBounds pins the controller's queue and per-attempt
// deadline: behind one blocked action 64 transitions queue and the 65th is
// dropped and counted, and every attempt's context expires in 5s.
func TestControllerBounds(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	ctl := NewController(ControllerConfig{})
	defer ctl.Close()
	started, release := make(chan time.Duration, 1), make(chan struct{})
	ctl.SetFallbackPlan(Plan{OnDead: func(ctx context.Context, _ string) error {
		dl, _ := ctx.Deadline()
		select {
		case started <- time.Until(dl):
		default:
		}
		<-release
		return nil
	}})
	ctl.Handle(Transition{Endpoint: "m0", To: Dead})
	if left := <-started; left > 5*time.Second || left < 4*time.Second {
		t.Fatalf("action deadline %v away, want 5s", left)
	}
	for i := 0; i < 65; i++ { // the worker is busy: these only queue
		ctl.Handle(Transition{Endpoint: "m0", To: Dead})
	}
	if st := ctl.Stats(); st.Handled != 65 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 65 handled (1 running + 64 queued) and 1 dropped", st)
	}
	close(release)
	waitFor(t, "queue drained", func() bool { return ctl.Stats().Actions == 65 })
}

func TestControllerBreakerGatedReadmission(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	bs := policy.NewBreakerSet(policy.BreakerConfig{
		ConsecutiveFailures: 1,
		OpenFor:             10 * time.Millisecond,
	})
	br := bs.For("rep0")
	br.Record(false) // trip it: rep0 just died
	if br.State() != policy.Open {
		t.Fatalf("breaker state = %v, want open", br.State())
	}

	var heals atomic.Int64
	ctl := NewController(ControllerConfig{Breakers: bs, RetryDelay: time.Millisecond})
	defer ctl.Close()
	ctl.SetPlan("rep0", Plan{
		OnAlive: func(context.Context, string) error { heals.Add(1); return nil },
	})

	// While the breaker is freshly open the heal is deferred, not run.
	ctl.Handle(Transition{Endpoint: "rep0", From: Dead, To: Alive})
	waitFor(t, "deferred heal", func() bool { return ctl.Stats().Failures == 1 })
	if heals.Load() != 0 {
		t.Fatal("heal ran through an open breaker")
	}

	// After OpenFor the breaker grants its half-open probe: the heal
	// runs, its success is recorded, and the breaker re-closes — the
	// ReturnProbe/Record re-admission path.
	waitFor(t, "half-open", func() bool { return br.State() == policy.HalfOpen })
	ctl.Handle(Transition{Endpoint: "rep0", From: Dead, To: Alive})
	waitFor(t, "re-admitted", func() bool { return ctl.Stats().Readmissions == 1 })
	if heals.Load() != 1 {
		t.Fatalf("heals = %d, want 1", heals.Load())
	}
	waitFor(t, "breaker closed", func() bool { return br.State() == policy.Closed })
}

func TestDetectorWatchErrors(t *testing.T) {
	d := New(Config{Interval: time.Hour})
	defer d.Close()
	probe := &flakyProbe{}
	if err := d.Watch("a", nil); err == nil {
		t.Fatal("nil probe accepted")
	}
	if err := d.Watch("a", probe.fn()); err != nil {
		t.Fatal(err)
	}
	if err := d.Watch("a", probe.fn()); err == nil {
		t.Fatal("duplicate watch accepted")
	}
	d.Unwatch("a")
	if err := d.Watch("a", probe.fn()); err != nil {
		t.Fatalf("re-watch after unwatch: %v", err)
	}
	d.Close()
	if err := d.Watch("b", probe.fn()); err == nil {
		t.Fatal("watch after close accepted")
	}
	if got := fmt.Sprint(Alive, Suspect, Dead); got != "alive suspect dead" {
		t.Fatalf("state strings = %q", got)
	}
}
