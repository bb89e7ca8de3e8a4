package policy

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mgmt"
)

func TestAttemptsDefaults(t *testing.T) {
	if got := (RetryPolicy{}).Attempts(); got != 1 {
		t.Fatalf("zero policy attempts = %d, want 1", got)
	}
	if got := (RetryPolicy{MaxAttempts: -3}).Attempts(); got != 1 {
		t.Fatalf("negative attempts = %d, want 1", got)
	}
	if got := (RetryPolicy{MaxAttempts: 4}).Attempts(); got != 4 {
		t.Fatalf("attempts = %d, want 4", got)
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	// The delay doubles from the base and never exceeds 16× it.
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 160, 160, 160}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if got := (RetryPolicy{}).Backoff(3); got != 0 {
		t.Errorf("zero policy backoff = %v, want 0", got)
	}
	p2 := RetryPolicy{BaseBackoff: time.Millisecond}
	if got := p2.Backoff(30); got != 16*time.Millisecond {
		t.Errorf("capped backoff = %v, want 16ms", got)
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, Jitter: 0.5, Seed: 42}
	for retry := 1; retry <= 8; retry++ {
		a, b := p.Backoff(retry), p.Backoff(retry)
		if a != b {
			t.Fatalf("jittered backoff not deterministic at retry %d: %v vs %v", retry, a, b)
		}
		full := RetryPolicy{BaseBackoff: p.BaseBackoff}.Backoff(retry)
		if a > full || a < full/2 {
			t.Fatalf("retry %d: jittered %v outside [%v, %v]", retry, a, full/2, full)
		}
	}
	// Different seeds disagree somewhere (decorrelated storms).
	other := RetryPolicy{BaseBackoff: 10 * time.Millisecond, Jitter: 0.5, Seed: 43}
	same := true
	for retry := 1; retry <= 8; retry++ {
		if p.Backoff(retry) != other.Backoff(retry) {
			same = false
		}
	}
	if same {
		t.Fatal("two seeds produced identical jitter everywhere")
	}
}

func TestWaitHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Wait(ctx, time.Second); err != context.Canceled {
		t.Fatalf("Wait on dead ctx = %v, want Canceled", err)
	}
	start := time.Now()
	if err := Wait(context.Background(), 5*time.Millisecond); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("Wait returned early")
	}
}

func TestWithBudget(t *testing.T) {
	ctx, cancel := (RetryPolicy{}).WithBudget(context.Background())
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("zero budget should not set a deadline")
	}
	ctx2, cancel2 := (RetryPolicy{Budget: time.Minute}).WithBudget(context.Background())
	defer cancel2()
	if _, ok := ctx2.Deadline(); !ok {
		t.Fatal("budget should set a deadline")
	}
}

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(cfg BreakerConfig) (*Breaker, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	cfg.Clock = clk.Now
	return NewBreaker(cfg), clk
}

func TestBreakerConsecutiveFailuresOpen(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{ConsecutiveFailures: 3, OpenFor: time.Second})
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatal("closed breaker refused")
		}
		b.Record(false)
	}
	if b.State() != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state after 3 failures = %v, want open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("open breaker allowed a call before OpenFor")
	}
	if st := b.Stats(); st.Opens != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want Opens=1 Rejected=1", st)
	}
	// Cooling off: exactly one probe is admitted.
	clk.Advance(time.Second)
	ok1, probe1 := b.Allow()
	ok2, _ := b.Allow()
	if !ok1 || !probe1 {
		t.Fatalf("first caller after OpenFor: ok=%v probe=%v, want probe", ok1, probe1)
	}
	if ok2 {
		t.Fatal("second caller admitted while probe in flight")
	}
	// Probe fails: re-open, full cooling-off again.
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("re-opened breaker allowed a call immediately")
	}
	// Probe succeeds: close.
	clk.Advance(time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("no probe admitted after second cooling-off")
	}
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if ok, probe := b.Allow(); !ok || probe {
		t.Fatal("closed breaker should allow without probing")
	}
}

func TestBreakerFailureRateWindow(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{ConsecutiveFailures: -1})
	// 2 successes + 2 failures: the rate is 0.5 already, but 4 samples are
	// below the minimum of 5.
	for _, ok := range []bool{true, true, false, false} {
		b.Record(ok)
	}
	if b.State() != Closed {
		t.Fatalf("below the sample minimum tripped: %v", b.State())
	}
	// The 5th sample takes the rate to 3/5 ≥ 0.5: trip.
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("rate 0.6 over 5 samples did not trip: %v", b.State())
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{ConsecutiveFailures: -1})
	b.Record(false)
	b.Record(false)
	// A full 10 s window later those failures have aged out entirely: with
	// them the next failure would be the 3rd of 5 samples and trip.
	clk.Advance(11 * time.Second)
	b.Record(true)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if b.State() != Closed {
		t.Fatalf("failures older than the window still count: %v", b.State())
	}
	b.Record(false) // fresh window: 2 ok, 3 fail → rate 0.6 over 5 samples
	if b.State() != Open {
		t.Fatalf("fresh-window rate should trip: %v", b.State())
	}
}

// TestBreakerRateTripBounds pins the rate trip's three bounds through the
// clock seam: at least 5 outcomes, inside one 10 s window, at least half
// of them failures.
func TestBreakerRateTripBounds(t *testing.T) {
	type sample struct {
		after time.Duration // clock advance before the outcome
		ok    bool
	}
	cases := []struct {
		name    string
		samples []sample
		want    State
	}{
		{"4 samples at 50% stay closed", []sample{{0, true}, {0, false}, {0, true}, {0, false}}, Closed},
		{"5 samples at 40% stay closed", []sample{{0, true}, {0, true}, {0, true}, {0, false}, {0, false}}, Closed},
		{"6 samples at 50% trip", []sample{{0, true}, {0, true}, {0, true}, {0, false}, {0, false}, {0, false}}, Open},
		{"5 failures inside 10s trip", []sample{{0, false}, {0, false}, {0, false}, {6 * time.Second, false}, {0, false}}, Open},
		{"5 failures spread over more than 10s do not", []sample{{0, false}, {0, false}, {0, false}, {10 * time.Second, false}, {0, false}}, Closed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, clk := newTestBreaker(BreakerConfig{ConsecutiveFailures: -1})
			for _, s := range c.samples {
				clk.Advance(s.after)
				b.Record(s.ok)
			}
			if got := b.State(); got != c.want {
				t.Fatalf("state = %v, want %v", got, c.want)
			}
		})
	}
}

func TestBreakerSetSharing(t *testing.T) {
	s := NewBreakerSet(BreakerConfig{ConsecutiveFailures: 1})
	a1, a2 := s.For("sim://a"), s.For("sim://a")
	if a1 != a2 {
		t.Fatal("same key minted two breakers")
	}
	if s.For("sim://b") == a1 {
		t.Fatal("distinct keys share a breaker")
	}
	a1.Record(false)
	if got := s.For("sim://a").State(); got != Open {
		t.Fatalf("shared breaker state = %v, want open", got)
	}
	snap := s.Snapshot()
	if _, minted := snap["sim://c"]; minted || len(snap) != 2 || snap["sim://a"].Opens != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestBreakerSetStatsThroughManagement: Management reads the set's own
// counters, so a breaker that trips, fails its half-open probe (re-opening)
// and then passes the next one shows nothing open. (The pushed open_now
// gauge this replaced read 1 here: the failed probe added a second +1.)
func TestBreakerSetStatsThroughManagement(t *testing.T) {
	m := mgmt.New()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := NewBreakerSet(BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Second, Clock: clk.Now})
	mgmt.Read(m, "policy.t.breaker.", s.Stats)
	br := s.For("x")
	br.Record(false) // open
	if ok, _ := br.Allow(); ok {
		t.Fatal("open breaker allowed before OpenFor")
	}
	for _, success := range []bool{false, true} { // re-open, then close
		clk.Advance(time.Second)
		if ok, probe := br.Allow(); !ok || !probe {
			t.Fatalf("expected probe admission, got ok=%v probe=%v", ok, probe)
		}
		br.Record(success)
	}
	want := map[string]string{
		"policy.t.breaker.open_now": "gauge 0",
		"policy.t.breaker.opens":    "counter 2",
		"policy.t.breaker.closes":   "counter 1",
		"policy.t.breaker.probes":   "counter 2",
		"policy.t.breaker.rejected": "counter 1",
	}
	for _, line := range strings.Split(m.Registry.Dump(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && want[f[1]] != "" {
			if got := f[0] + " " + f[2]; got != want[f[1]] {
				t.Errorf("%s = %s, want %s", f[1], got, want[f[1]])
			}
			delete(want, f[1])
		}
	}
	if len(want) > 0 {
		t.Errorf("Management lacks %v", want)
	}
}

func TestBreakerConcurrency(t *testing.T) {
	s := NewBreakerSet(BreakerConfig{ConsecutiveFailures: 3, OpenFor: time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				br := s.For("ep")
				if ok, _ := br.Allow(); ok {
					br.Record(i%3 == 0)
				}
				br.State()
			}
		}(g)
	}
	wg.Wait()
	st := s.For("ep").Stats()
	if st.Successes+st.Failures+st.Rejected == 0 {
		t.Fatal("no outcomes recorded")
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open", State(9): "state(?)"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int32(s), got, want)
		}
	}
}

// TestBreakerReturnProbe: a probe handed back unused leaves the breaker
// half-open with the probe slot free, so the next caller becomes the
// probe; a ReturnProbe outside a probe changes nothing.
func TestBreakerReturnProbe(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Second})
	b.ReturnProbe() // closed: no-op
	if ok, probe := b.Allow(); !ok || probe {
		t.Fatalf("closed breaker after stray ReturnProbe: ok=%v probe=%v", ok, probe)
	}
	b.Record(false)
	clk.Advance(time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("first caller after OpenFor: ok=%v probe=%v, want probe", ok, probe)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("second caller admitted while probe in flight")
	}
	b.ReturnProbe()
	if b.State() != HalfOpen {
		t.Fatalf("state after ReturnProbe = %v, want half-open", b.State())
	}
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("caller after ReturnProbe: ok=%v probe=%v, want the probe", ok, probe)
	}
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if st := b.Stats(); st.Probes != 2 || st.Closes != 1 {
		t.Fatalf("stats = %+v, want Probes=2 Closes=1", st)
	}
}
