package coordination

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/values"
)

func (f *fakeInvoker) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *fakeInvoker) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func newPolicyGroup(t *testing.T, mp *MemberPolicy, members ...*fakeInvoker) *ReplicaGroup {
	t.Helper()
	g := NewReplicaGroup()
	for i, m := range members {
		if err := g.Add("r"+string(rune('0'+i)), m); err != nil {
			t.Fatal(err)
		}
	}
	g.SetMemberPolicy(mp)
	return g
}

// TestGroupRetainSkipsOpenMembers: with Retain + breakers, a dead member
// is kept in the group but sat out once its breaker opens, so updates
// stop burning attempts on it.
func TestGroupRetainSkipsOpenMembers(t *testing.T) {
	bs := policy.NewBreakerSet(policy.BreakerConfig{ConsecutiveFailures: 2, OpenFor: time.Hour})
	dead := &fakeInvoker{fail: true}
	live := &fakeInvoker{}
	g := newPolicyGroup(t, &MemberPolicy{Breakers: bs, Retain: true}, live, dead)

	for i := 0; i < 5; i++ {
		if _, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if g.Size() != 2 {
		t.Fatalf("Retain dropped a member: size=%d", g.Size())
	}
	// Two failures tripped the breaker; the remaining three updates never
	// touched the dead member.
	if got := dead.callCount(); got != 2 {
		t.Fatalf("dead member called %d times, want 2 (breaker should gate the rest)", got)
	}
	st := g.Stats()
	if st.SkippedLegs != 3 {
		t.Fatalf("skipped legs = %d, want 3", st.SkippedLegs)
	}
	if bs.For("r1").State() != policy.Open {
		t.Fatal("dead member's breaker not open")
	}
}

// TestGroupRejoinAfterRecovery: the half-open probe re-admits a revived
// member through OnRejoin, which sees the member's name before it serves
// an update again.
func TestGroupRejoinAfterRecovery(t *testing.T) {
	bs := policy.NewBreakerSet(policy.BreakerConfig{ConsecutiveFailures: 1, OpenFor: 10 * time.Millisecond})
	flappy := &fakeInvoker{fail: true}
	live := &fakeInvoker{}
	var rejoined []string
	mp := &MemberPolicy{
		Breakers: bs,
		Retain:   true,
		OnRejoin: func(_ context.Context, name string, _ Invoker) error {
			rejoined = append(rejoined, name)
			// State catch-up: copy the survivor's state into the returning
			// member, as checkpoint recovery would.
			live.mu.Lock()
			s := live.state
			live.mu.Unlock()
			flappy.mu.Lock()
			flappy.state = s
			flappy.mu.Unlock()
			return nil
		},
	}
	g := newPolicyGroup(t, mp, live, flappy)

	// Trip r1's breaker, then revive the member and wait out the cooldown.
	if _, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if bs.For("r1").State() != policy.Open {
		t.Fatal("breaker did not open")
	}
	flappy.setFail(false)
	time.Sleep(15 * time.Millisecond)

	if _, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if len(rejoined) != 1 || rejoined[0] != "r1" {
		t.Fatalf("rejoin hook calls = %v, want [r1]", rejoined)
	}
	if bs.For("r1").State() != policy.Closed {
		t.Fatal("breaker did not re-close after successful probe leg")
	}
	// The rejoined member now participates normally.
	before := flappy.callCount()
	if _, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if flappy.callCount() != before+1 {
		t.Fatal("rejoined member not participating in updates")
	}
}

// TestReadProbeDoesNotBypassRejoin: a read must never consume the
// half-open probe when a rejoin hook is installed — re-closing the
// breaker without OnRejoin would let a stale member back into the
// update fan-out and diverge. The read hands the probe token back (so
// the next update can claim it) and serves from a survivor.
func TestReadProbeDoesNotBypassRejoin(t *testing.T) {
	bs := policy.NewBreakerSet(policy.BreakerConfig{ConsecutiveFailures: 1, OpenFor: 5 * time.Millisecond})
	flappy := &fakeInvoker{fail: true}
	live := &fakeInvoker{state: 3}
	var rejoined []string
	mp := &MemberPolicy{
		Breakers: bs,
		Retain:   true,
		OnRejoin: func(_ context.Context, name string, _ Invoker) error {
			rejoined = append(rejoined, name)
			live.mu.Lock()
			s := live.state
			live.mu.Unlock()
			flappy.mu.Lock()
			flappy.state = s
			flappy.mu.Unlock()
			return nil
		},
	}
	g := newPolicyGroup(t, mp, live, flappy)

	// Trip r1's breaker, revive the member, wait out the cooldown: the
	// breaker is now half-open with one probe token on offer.
	if _, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)}); err != nil {
		t.Fatal(err)
	}
	flappy.setFail(false)
	time.Sleep(10 * time.Millisecond)

	// Reads land on the half-open member first (rotation) but must not
	// invoke it or close its breaker; they skip to the survivor, flagged
	// stale, and leave the probe for the update path.
	before := flappy.callCount()
	var skippedReads int
	for i := 0; i < 4; i++ {
		_, _, meta, err := g.InvokeReadMeta(context.Background(), "Get", nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if meta.Member != "r0" {
			t.Fatalf("read %d served by %q, want survivor r0", i, meta.Member)
		}
		if meta.Skipped > 0 {
			skippedReads++
			if !meta.Stale {
				t.Fatalf("read %d skipped the half-open member but is not stale: %+v", i, meta)
			}
		}
	}
	// The rotation guarantees at least half the reads started on the
	// half-open member and had to skip it.
	if skippedReads == 0 {
		t.Fatal("no read ever rotated onto the half-open member")
	}
	if flappy.callCount() != before {
		t.Fatal("read consumed the half-open probe and invoked the member")
	}
	if len(rejoined) != 0 {
		t.Fatalf("rejoin ran on the read path: %v", rejoined)
	}
	if bs.For("r1").State() != policy.HalfOpen {
		t.Fatalf("breaker state = %v, want half-open (probe returned)", bs.For("r1").State())
	}

	// The next update claims the probe, runs OnRejoin, and re-closes.
	if _, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if len(rejoined) != 1 || rejoined[0] != "r1" {
		t.Fatalf("rejoin hook calls = %v, want [r1]", rejoined)
	}
	if bs.For("r1").State() != policy.Closed {
		t.Fatal("breaker did not re-close after the update probe")
	}
}

// TestGroupAllCircuitsOpen: when every member's breaker is open the
// update fails fast with ErrCircuitOpen instead of ErrEmptyGroup — the
// group still exists, it is just unreachable right now.
func TestGroupAllCircuitsOpen(t *testing.T) {
	bs := policy.NewBreakerSet(policy.BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Hour})
	a, b := &fakeInvoker{fail: true}, &fakeInvoker{fail: true}
	g := newPolicyGroup(t, &MemberPolicy{Breakers: bs, Retain: true}, a, b)
	// First update: both legs fail and trip their breakers.
	if _, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)}); err == nil {
		t.Fatal("all-dead update succeeded")
	}
	// Second update fails fast without touching either member.
	_, _, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)})
	if !errors.Is(err, policy.ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if a.callCount() != 1 || b.callCount() != 1 {
		t.Fatalf("members called %d/%d times, want 1/1", a.callCount(), b.callCount())
	}
	if g.Size() != 2 {
		t.Fatalf("group size = %d, want 2 (retained)", g.Size())
	}
}

// TestDegradedRead: a read that had to pass over a failed member is
// flagged stale, counted, and still answered by a survivor.
func TestDegradedRead(t *testing.T) {
	bs := policy.NewBreakerSet(policy.BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Hour})
	dead := &fakeInvoker{fail: true}
	live := &fakeInvoker{state: 7}
	g := NewReplicaGroup()
	if err := g.Add("dead", dead); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("live", live); err != nil {
		t.Fatal(err)
	}
	g.SetMemberPolicy(&MemberPolicy{Breakers: bs, Retain: true})

	// Rotation starts at "dead": the read fails over and is degraded.
	term, res, meta, err := g.InvokeReadMeta(context.Background(), "Get", nil)
	if err != nil || term != "OK" {
		t.Fatalf("read = %q %v %v", term, res, err)
	}
	if meta.Member != "live" || !meta.Stale || meta.Failovers != 1 {
		t.Fatalf("meta = %+v, want live/stale/1 failover", meta)
	}
	if v, _ := res[0].AsInt(); v != 7 {
		t.Fatalf("read value = %d, want 7", v)
	}
	if g.Size() != 2 {
		t.Fatalf("Retain dropped a member on read: size=%d", g.Size())
	}
	// The next read skips the now-open breaker without calling the member.
	before := dead.callCount()
	_, _, meta, err = g.InvokeReadMeta(context.Background(), "Get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if dead.callCount() != before {
		t.Fatal("open-circuit member still invoked on read")
	}
	if st := g.Stats(); st.DegradedReads < 1 {
		t.Fatalf("degraded reads = %d, want ≥1", st.DegradedReads)
	}
}

// TestDegradedReadQuorumLoss: even when the surviving member answers
// first try, losing a majority of the peak membership flags staleness.
func TestDegradedReadQuorumLoss(t *testing.T) {
	g := NewReplicaGroup()
	live := &fakeInvoker{}
	if err := g.Add("live", live); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"d1", "d2"} {
		if err := g.Add(n, &fakeInvoker{fail: true}); err != nil {
			t.Fatal(err)
		}
	}
	// No member policy: failed members drop out (legacy masking), but the
	// peak membership of 3 is remembered.
	for {
		_, _, _, err := g.InvokeReadMeta(context.Background(), "Get", nil)
		if err != nil {
			t.Fatal(err)
		}
		if g.Size() == 1 {
			break
		}
	}
	_, _, meta, err := g.InvokeReadMeta(context.Background(), "Get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Stale {
		t.Fatalf("1 of 3 peak members alive: read should be stale, meta=%+v", meta)
	}
}

// TestFailoverGroupPolicyBudget: a failover cascade under a policy is
// bounded by the budget and paced by backoff instead of instantly
// burning through every backup.
func TestFailoverGroupPolicyBudget(t *testing.T) {
	g := NewFailoverGroup()
	g.Policy = policy.RetryPolicy{
		BaseBackoff: 20 * time.Millisecond,
		Budget:      200 * time.Millisecond,
	}
	for _, n := range []string{"p", "b1", "b2"} {
		if err := g.Add(n, &fakeInvoker{fail: true}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, _, err := g.Invoke(context.Background(), "Get", nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("all-dead failover group succeeded")
	}
	// Three members, backoffs of 20ms and 40ms: at least 40ms elapsed; the
	// legacy path would return in microseconds.
	if elapsed < 40*time.Millisecond {
		t.Fatalf("failover cascade finished in %v; backoff not applied", elapsed)
	}
	if g.Promotions() != 3 {
		t.Fatalf("promotions = %d, want 3", g.Promotions())
	}
}

// TestFailoverGroupMaxAttempts: the policy's attempt cap stops the
// cascade before the membership is exhausted.
func TestFailoverGroupMaxAttempts(t *testing.T) {
	g := NewFailoverGroup()
	g.Policy = policy.RetryPolicy{MaxAttempts: 1}
	if err := g.Add("p", &fakeInvoker{fail: true}); err != nil {
		t.Fatal(err)
	}
	backup := &fakeInvoker{}
	if err := g.Add("b", backup); err != nil {
		t.Fatal(err)
	}
	_, _, err := g.Invoke(context.Background(), "Get", nil)
	if err == nil {
		t.Fatal("MaxAttempts=1 should fail without trying the backup")
	}
	if errors.Is(err, ErrEmptyGroup) {
		t.Fatalf("err = %v, want the primary's failure", err)
	}
	if backup.callCount() != 0 {
		t.Fatal("backup was invoked despite MaxAttempts=1")
	}
}
