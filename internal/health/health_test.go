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
	"repro/internal/values"
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
		st := d.Stats()["m0"]
		return st.State == Alive && st.WindowRTTNs > 0
	})

	probe.failing.Store(true)
	waitFor(t, "dead", func() bool { return d.Stats()["m0"].State == Dead })
	if susp := d.Stats()["m0"].Suspicion; susp != 1000 {
		t.Fatalf("dead endpoint suspicion = %d‰, want 1000", susp)
	}

	probe.failing.Store(false)
	// OnTransition runs after the new state is published, outside the
	// detector's locks, so Stats can read Alive before the log has the
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
		st := d.Stats()["wan"]
		return st.WindowRTTNs > 0 && st.State == Alive
	})

	// A latency regime shift: probes still "succeed" but report round
	// trips far beyond the adaptive timeout (4 × ~1ms window). The
	// detector must count them as misses and raise suspicion.
	probe.rtt.Store(int64(500 * time.Millisecond))
	waitFor(t, "suspect on slow probes", func() bool {
		st := d.Stats()["wan"]
		return st.State == Suspect && st.Suspicion > 0
	})

	// Back to the old regime: suspicion resets.
	probe.rtt.Store(int64(time.Millisecond))
	waitFor(t, "alive again", func() bool {
		st := d.Stats()["wan"]
		return st.State == Alive && st.Suspicion == 0
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
	report := func(rtt time.Duration) EndpointStats {
		p.rtt <- rtt
		<-p.entered
		return d.Stats()["wan"]
	}
	var st EndpointStats
	for i := 0; i < 32; i++ {
		st = report(10 * time.Millisecond)
	}
	if time.Duration(st.WindowRTTNs) != 10*time.Millisecond || st.MissRun != 0 {
		t.Fatalf("after 32×10ms: %+v, want window RTT 10ms and no miss run", st)
	}
	if st = report(41 * time.Millisecond); st.MissRun != 1 {
		t.Fatalf("41ms against a 10ms window: miss run = %d, want 1 (timeout is 4×RTT = 40ms)", st.MissRun)
	}
	if st = report(40 * time.Millisecond); st.MissRun != 0 {
		t.Fatalf("40ms against a 10ms window: miss run = %d, want 0 (within 4×RTT)", st.MissRun)
	}
	// The window now holds 31×10ms and, newest, one 40ms (a miss is not a
	// sample). 31 samples of 2ms leave only that 40ms of the old regime;
	// the 32nd pushes it out.
	for i := 0; i < 31; i++ {
		st = report(2 * time.Millisecond)
	}
	if want := (40 + 31*2) * time.Millisecond / 32; time.Duration(st.WindowRTTNs) != want {
		t.Fatalf("after 31 newer samples: window RTT = %v, want %v (one old sample left)", time.Duration(st.WindowRTTNs), want)
	}
	if st = report(2 * time.Millisecond); time.Duration(st.WindowRTTNs) != 2*time.Millisecond {
		t.Fatalf("after 32 newer samples: window RTT = %v, want 2ms (old regime forgotten)", time.Duration(st.WindowRTTNs))
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
		st := d.Stats()["m1"]
		return st.State == Alive && st.WindowRTTNs > 0
	})

	// Application traffic reports failures: no active probe needed.
	for i := 0; i < 4; i++ {
		d.Observe("m1", 0, errors.New("invoke failed"))
	}
	if st := d.Stats()["m1"].State; st != Dead {
		t.Fatalf("state after 4 passive failures = %v, want dead", st)
	}
	d.Observe("m1", time.Millisecond, nil)
	if st := d.Stats()["m1"].State; st != Alive {
		t.Fatalf("state after passive success = %v, want alive", st)
	}
	// Unwatched endpoints are ignored, not created.
	d.Observe("ghost", 0, errors.New("x"))
	if _, ok := d.Stats()["ghost"]; ok {
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

	// A record the decoder cannot read as a transition is refused, never
	// handed on: the controller indexes its plan's hooks by state.
	for name, v := range map[string]values.Value{
		"unknown state": Transition{Endpoint: "rep0", To: State(7)}.ToValue(),
		"negative":      Transition{Endpoint: "rep0", From: State(-1)}.ToValue(),
		"no to":         values.Record(values.F("endpoint", values.Str("rep0")), values.F("from", values.Int(0))),
		"no endpoint":   values.Record(values.F("from", values.Int(0)), values.F("to", values.Int(2))),
		"not a record":  values.Int(2),
	} {
		if got, err := TransitionFromValue(v); err == nil {
			t.Errorf("%s: decoded as %+v", name, got)
		}
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
	waitFor(t, "warm", func() bool { st := d.Stats()["m0"]; return st.State == Alive && st.WindowRTTNs > 0 })

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

// TestControllerRetriesThenFails: a plan that fails its attempts is
// counted once for its verdict after its third attempt, stays pending
// and keeps being retried on the backoff, and is settled the first time
// it succeeds.
func TestControllerRetriesThenFails(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	var fixed atomic.Bool
	var mu sync.Mutex
	var seen []uint64 // Failures as each call starts
	ctl := NewController(ControllerConfig{})
	defer ctl.Close()
	ctl.SetPlan("m9", Plan{
		OnDead: func(context.Context, string) error {
			f := ctl.Stats().Failures // the worker holds no lock while a hook runs
			mu.Lock()
			seen = append(seen, f)
			mu.Unlock()
			if fixed.Load() {
				return nil
			}
			return errors.New("still broken")
		},
	})
	calls := func() int { mu.Lock(); defer mu.Unlock(); return len(seen) }
	ctl.Handle(Transition{Endpoint: "m9", From: Suspect, To: Dead})
	waitFor(t, "three rounds of attempts", func() bool { return calls() >= 3*actionAttempts })
	if st := ctl.Stats(); st.Failures != 1 || st.Pending != 1 || st.Actions != 0 {
		t.Fatalf("stats = %+v, want 1 failure (once per verdict), 1 pending, 0 actions", st)
	}
	mu.Lock()
	for i, f := range seen {
		if want := uint64(min(i/actionAttempts, 1)); f != want {
			t.Errorf("call %d saw %d failures, want %d: %d attempts a round, one count a verdict", i+1, f, want, actionAttempts)
		}
	}
	mu.Unlock()
	fixed.Store(true)
	waitFor(t, "the retried plan succeeds", func() bool { return ctl.Stats().Pending == 0 })
	if st := ctl.Stats(); st.Failures != 1 || st.Actions != 1 {
		t.Fatalf("stats = %+v, want 1 failure and 1 action", st)
	}
}

// TestControllerOverwrittenFailureCountedOnce: a Dead verdict fails its
// first round and is counted; during its second round the endpoint heals.
// The second round fails too, but the verdict is not counted again, and
// the heal, back at the state the plan never left, needs no action.
func TestControllerOverwrittenFailureCountedOnce(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	var calls, heals atomic.Int64
	ctl := NewController(ControllerConfig{})
	defer ctl.Close()
	ctl.SetPlan("m9", Plan{
		OnDead: func(context.Context, string) error {
			if calls.Add(1) == actionAttempts+1 {
				ctl.Handle(Transition{Endpoint: "m9", From: Dead, To: Alive})
			}
			return errors.New("still broken")
		},
		OnAlive: func(context.Context, string) error { heals.Add(1); return nil },
	})
	ctl.SetPlan("marker", Plan{OnSuspect: func(context.Context, string) error { return nil }})
	ctl.Handle(Transition{Endpoint: "m9", From: Alive, To: Dead})
	waitFor(t, "the second round's last attempt", func() bool { return calls.Load() >= 2*actionAttempts })
	// One worker serves both: the marker's action runs after m9's round is recorded.
	ctl.Handle(Transition{Endpoint: "marker", From: Alive, To: Suspect})
	waitFor(t, "the marker's action", func() bool { return ctl.Stats().Actions == 1 })
	if st := ctl.Stats(); st.Failures != 1 || st.Pending != 0 || heals.Load() != 0 || calls.Load() != 2*actionAttempts {
		t.Fatalf("stats = %+v, %d calls, %d heals: want 1 failure, 0 pending, %d calls, 0 heals", st, calls.Load(), heals.Load(), 2*actionAttempts)
	}
}

// TestControllerBounds pins what a busy worker does with verdicts and the
// per-attempt deadline: 104 transitions for four endpoints land while the
// worker is blocked in a hook, none is dropped, and after the release
// each endpoint's last verdict is acted on exactly once. Every attempt's
// context expires in 5s.
func TestControllerBounds(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	ctl := NewController(ControllerConfig{})
	defer ctl.Close()
	started, release := make(chan time.Duration, 1), make(chan struct{})
	ctl.SetPlan("blocker", Plan{OnDead: func(ctx context.Context, _ string) error {
		dl, _ := ctx.Deadline()
		started <- time.Until(dl)
		<-release
		return nil
	}})
	var mu sync.Mutex
	acted := map[string][]State{}
	record := func(s State) func(context.Context, string) error {
		return func(_ context.Context, ep string) error {
			mu.Lock()
			acted[ep] = append(acted[ep], s)
			mu.Unlock()
			return nil
		}
	}
	const endpoints, each = 4, 26
	for i := 0; i < endpoints; i++ {
		ctl.SetPlan(fmt.Sprintf("m%d", i), Plan{OnSuspect: record(Suspect), OnDead: record(Dead), OnAlive: record(Alive)})
	}
	ctl.Handle(Transition{Endpoint: "blocker", To: Dead})
	if left := <-started; left > 5*time.Second || left < 4*time.Second {
		t.Fatalf("action deadline %v away, want 5s", left)
	}

	// The worker is busy: each endpoint walks alive → suspect → dead →
	// alive … from its own starting state, so the last verdicts differ.
	last := map[string]State{}
	for k := 0; k < each; k++ {
		for i := 0; i < endpoints; i++ {
			ep := fmt.Sprintf("m%d", i)
			from, to := State((i+k)%3), State((i+k+1)%3)
			ctl.Handle(Transition{Endpoint: ep, From: from, To: to})
			last[ep] = to
		}
	}
	if st := ctl.Stats(); st.Pending != endpoints+1 || st.Actions != 0 {
		t.Fatalf("stats = %+v, want %d pending (the blocker and every endpoint) and 0 actions", st, endpoints+1)
	}
	close(release)
	waitFor(t, "every last verdict acted on", func() bool { return ctl.Stats().Pending == 0 })
	mu.Lock()
	defer mu.Unlock()
	for ep, to := range last {
		if got := acted[ep]; !slices.Equal(got, []State{to}) {
			t.Errorf("%s: acted on %v, want its last verdict %v once", ep, got, to)
		}
	}
	if st := ctl.Stats(); st.Actions != endpoints+1 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want %d actions and no failure", st, endpoints+1)
	}
}

// fakeBreakers is a breaker set on a clock the test moves, which counts
// its readings: a controller waiting on a breaker reads it on every poll.
type fakeBreakers struct {
	*policy.BreakerSet
	now, reads atomic.Int64
}

func newFakeBreakers(openFor time.Duration) *fakeBreakers {
	f := &fakeBreakers{}
	f.now.Store(time.Unix(1000, 0).UnixNano())
	f.BreakerSet = policy.NewBreakerSet(policy.BreakerConfig{
		ConsecutiveFailures: 1,
		OpenFor:             openFor,
		Clock: func() time.Time {
			f.reads.Add(1)
			return time.Unix(0, f.now.Load())
		},
	})
	return f
}

// TestControllerBreakerGatedReadmission: an endpoint dies, its failover
// trips its breaker, and it heals inside the breaker's OpenFor. The heal
// is neither run nor counted as a failure while the breaker is open: it
// waits, pending, without a refusal on the breaker. Once the breaker's
// clock passes OpenFor the heal runs with no second verdict, its success
// is recorded, and the breaker re-closes.
func TestControllerBreakerGatedReadmission(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	const openFor = time.Minute
	bs := newFakeBreakers(openFor)
	br := bs.For("rep0")

	var heals atomic.Int64
	ctl := NewController(ControllerConfig{Breakers: bs.BreakerSet})
	defer ctl.Close()
	ctl.SetPlan("rep0", Plan{
		OnDead: func(_ context.Context, ep string) error {
			bs.For(ep).Record(false) // the failover trips the breaker
			return nil
		},
		OnAlive: func(context.Context, string) error { heals.Add(1); return nil },
	})
	ctl.Handle(Transition{Endpoint: "rep0", From: Alive, To: Dead})
	waitFor(t, "failover", func() bool { return ctl.Stats().Actions == 1 })
	if br.State() != policy.Open {
		t.Fatalf("breaker state = %v, want open", br.State())
	}

	ctl.Handle(Transition{Endpoint: "rep0", From: Dead, To: Alive})
	reads := bs.reads.Load()
	waitFor(t, "the heal polls the breaker", func() bool { return bs.reads.Load() >= reads+3 })
	if st := ctl.Stats(); heals.Load() != 0 || st.Failures != 0 || st.Pending != 1 {
		t.Fatalf("heals = %d, stats = %+v: want the heal waiting (0 heals, 0 failures, 1 pending)", heals.Load(), st)
	}
	if st := br.Stats(); st.Rejected != 0 {
		t.Fatalf("breaker rejected %d calls, want 0: waiting is not a refusal", st.Rejected)
	}

	bs.now.Add(int64(openFor))
	waitFor(t, "re-admitted", func() bool { return ctl.Stats().Readmissions == 1 })
	if st := ctl.Stats(); heals.Load() != 1 || st.Failures != 0 || st.Pending != 0 {
		t.Fatalf("heals = %d, stats = %+v: want 1 heal, 0 failures, 0 pending", heals.Load(), st)
	}
	if br.State() != policy.Closed {
		t.Fatalf("breaker state = %v, want closed", br.State())
	}
}

// TestControllerBreakerWaitHoldsUpNoOne: while one endpoint's heal waits
// on its open breaker, with its backoff at the cap, twenty other
// endpoints die one after another, and each one's OnDead runs as soon as
// the worker is poked, not at the waiting heal's next poll.
func TestControllerBreakerWaitHoldsUpNoOne(t *testing.T) {
	defer leakcheck.Guard(t, 2, 5*time.Second)()
	bs := newFakeBreakers(time.Hour)
	bs.For("waiting").Record(false)
	ctl := NewController(ControllerConfig{Breakers: bs.BreakerSet})
	defer ctl.Close()
	ctl.SetPlan("waiting", Plan{OnAlive: func(context.Context, string) error { return nil }})
	died := make(chan string)
	const deaths = 20
	for i := 0; i < deaths; i++ {
		ctl.SetPlan(fmt.Sprintf("dying%d", i), Plan{OnDead: func(ctx context.Context, ep string) error {
			select {
			case died <- ep:
			case <-ctx.Done():
			}
			return nil
		}})
	}
	ctl.Handle(Transition{Endpoint: "waiting", From: Dead, To: Alive})
	reads := bs.reads.Load()
	waitFor(t, "the heal's backoff reaches its cap", func() bool { return bs.reads.Load() >= reads+10 })

	// A worker that slept out the heal's backoff would hold each death up
	// by maxBackoff/2 on average, 1s over the twenty.
	start := time.Now()
	for i := 0; i < deaths; i++ {
		ctl.Handle(Transition{Endpoint: fmt.Sprintf("dying%d", i), To: Dead})
		select {
		case <-died:
		case <-time.After(5 * time.Second):
			t.Fatalf("death %d never failed over", i)
		}
	}
	if took, bound := time.Since(start), deaths*maxBackoff/4; took > bound {
		t.Fatalf("%d failovers took %v behind a waiting heal, want under %v", deaths, took, bound)
	}
	waitFor(t, "every failover counted", func() bool { return ctl.Stats().Actions == deaths })
	if st := ctl.Stats(); st.Pending != 1 {
		t.Fatalf("stats = %+v, want the heal still pending", st)
	}
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
