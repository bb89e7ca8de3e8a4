package trader

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/values"
)

// TestLinkBreakerSkipsDeadPartner: after a federation link's breaker
// trips, subsequent imports skip it without invoking, and the result is
// flagged degraded with the skip counted.
func TestLinkBreakerSkipsDeadPartner(t *testing.T) {
	a, _ := frontEnd(t, repoWithBank(t), "A", 1)
	var deadCalls atomic.Int64
	a.Link("dead", importerFunc(func(ImportRequest) ([]Offer, error) {
		deadCalls.Add(1)
		return nil, errors.New("partner down")
	}))
	a.SetLinkBreakers(policy.NewBreakerSet(policy.BreakerConfig{
		ConsecutiveFailures: 2, OpenFor: time.Hour,
	}))
	if _, err := a.Export("BankTeller", refOf("BankTeller", 1), values.Null()); err != nil {
		t.Fatal(err)
	}
	req := ImportRequest{ServiceType: "BankTeller", MaxHops: 1}

	// Two failing imports trip the breaker; the local offer still answers.
	// Each consults two legs: A's one shard and the link.
	for i := 0; i < 2; i++ {
		res, err := a.ImportEx(req)
		if err != nil || len(res.Offers) != 1 {
			t.Fatalf("import %d = %+v, %v", i, res, err)
		}
		if !res.Degraded || res.LinksFailed != 1 || res.LinksQueried != 2 {
			t.Fatalf("import %d metadata = %+v, want degraded with 1 failed link", i, res)
		}
	}
	// Third import skips the open circuit without touching the partner.
	res, err := a.ImportEx(req)
	if err != nil || len(res.Offers) != 1 {
		t.Fatalf("post-trip import = %+v, %v", res, err)
	}
	if !res.Degraded || res.LinksSkipped != 1 || res.LinksFailed != 0 {
		t.Fatalf("post-trip metadata = %+v, want 1 skipped link", res)
	}
	if got := deadCalls.Load(); got != 2 {
		t.Fatalf("dead link invoked %d times, want 2", got)
	}
	st := a.ShardStats()
	if st.LinksSkipped != 1 || st.LinksFailed != 2 {
		t.Fatalf("stats = %+v, want LinksSkipped=1 LinksFailed=2", st)
	}
}

// TestLinkBreakerRecovers: the half-open probe re-admits a healed link
// and the import view stops being degraded.
func TestLinkBreakerRecovers(t *testing.T) {
	repo := repoWithBank(t)
	a, _ := frontEnd(t, repo, "A", 1)
	b := New("B", repo)
	if _, err := b.Export("BankTeller", refOf("BankTeller", 2), values.Null()); err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	down.Store(true)
	a.Link("b", importerFunc(func(req ImportRequest) ([]Offer, error) {
		if down.Load() {
			return nil, errors.New("partner down")
		}
		return b.Import(req)
	}))
	bs := policy.NewBreakerSet(policy.BreakerConfig{
		ConsecutiveFailures: 1, OpenFor: 5 * time.Millisecond,
	})
	a.SetLinkBreakers(bs)
	req := ImportRequest{ServiceType: "BankTeller", MaxHops: 1}

	if res, err := a.ImportEx(req); err != nil || !res.Degraded {
		t.Fatalf("down import = %+v, %v", res, err)
	}
	down.Store(false)
	time.Sleep(10 * time.Millisecond)
	// The cooldown elapsed: this import is the half-open probe, succeeds,
	// re-closes the breaker, and the remote offer is back in the view.
	res, err := a.ImportEx(req)
	if err != nil || len(res.Offers) != 1 || res.Degraded {
		t.Fatalf("healed import = %+v, %v", res, err)
	}
	if bs.For("b").State() != policy.Closed {
		t.Fatal("link breaker did not re-close after healed probe")
	}
}

// TestLinkBreakerSharedAcrossImports: all imports share the per-link
// breaker, so one import tripping it shields every later caller.
func TestLinkBreakerSharedAcrossImports(t *testing.T) {
	a, _ := frontEnd(t, repoWithBank(t), "A", 1)
	var calls atomic.Int64
	a.Link("dead", importerFunc(func(ImportRequest) ([]Offer, error) {
		calls.Add(1)
		return nil, errors.New("down")
	}))
	a.SetLinkBreakers(policy.NewBreakerSet(policy.BreakerConfig{
		ConsecutiveFailures: 1, OpenFor: time.Hour,
	}))
	req := ImportRequest{ServiceType: "BankTeller", MaxHops: 1}
	for i := 0; i < 10; i++ {
		if _, err := a.ImportEx(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("dead link invoked %d times across 10 imports, want 1", got)
	}
}
