package coordination

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/policy"
	"repro/internal/trader"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

// flakyInvoker injects member failures on demand: while tripped, every
// sequenced leg to this member errors, so its breaker opens and the next
// grant after healing goes through the OnRejoin catch-up path.
type flakyInvoker struct {
	Invoker
	fail atomic.Bool
}

func (f *flakyInvoker) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if f.fail.Load() {
		return "", nil, errors.New("flaky: injected member failure")
	}
	return f.Invoker.Invoke(ctx, op, args)
}

// TestOnRejoinRacesRingEpoch drives a replica-group trader shard through
// member flapping (breaker open → half-open probe → OnRejoin catch-up)
// while the hashring above it changes epochs: shards join and drain away,
// and finally the group shard itself is removed from the ring while the
// flapping member is mid-rejoin. The catch-up mirrors the healthy
// replica's current offers into the returning one — it must never
// resurrect an offer the ring has already reassigned to another shard.
// Post-drain, both replicas must converge to empty, the ring must still
// resolve every service exactly once, and the group's sequenced updates
// must never have diverged. Run under -race: the interleavings are the
// test.
func TestOnRejoinRacesRingEpoch(t *testing.T) {
	const nSvc = 12
	svcName := func(i int) string { return fmt.Sprintf("RejoinSvc%02d", i) }
	repo := typerepo.New()
	for i := 0; i < nSvc; i++ {
		// Subtyping is structural: each type needs a marker operation of
		// its own or the n services all substitute for each other.
		it := types.OpInterface(svcName(i),
			types.Announce("Poke", types.P("x", values.TInt())),
			types.Announce(fmt.Sprintf("Mark%02d", i)))
		if err := repo.RegisterInterface(it); err != nil {
			t.Fatal(err)
		}
	}
	ref := func(i int) naming.InterfaceRef {
		return naming.InterfaceRef{
			ID:       naming.InterfaceID{Nonce: uint64(9000 + i)},
			TypeName: svcName(i),
			Endpoint: "sim://nowhere",
		}
	}

	fe := trader.NewSharded("fe", repo, 0)
	if err := fe.AddShard("s0", trader.New("s0", repo)); err != nil {
		t.Fatal(err)
	}

	// The group shard: two in-process trader replicas sharing the name
	// "g" (identical minted ids under the sequenced update stream), the
	// second one behind the failure injector.
	tg0, tg1 := trader.New("g", repo), trader.New("g", repo)
	m1 := &flakyInvoker{Invoker: Member(&trader.Servant{T: tg1})}
	group := NewReplicaGroup()
	if err := group.Add("m0", Member(&trader.Servant{T: tg0})); err != nil {
		t.Fatal(err)
	}
	if err := group.Add("m1", m1); err != nil {
		t.Fatal(err)
	}

	// OnRejoin is the state-transfer hook: mirror the healthy replica's
	// current offer set into the returning member. It runs inside the
	// update's sequence slot, so tg0 is quiescent while it reads — the
	// property that keeps the catch-up from resurrecting offers a
	// concurrent drain already withdrew.
	var rejoins atomic.Int64
	catchUp := func(context.Context, string, Invoker) error {
		rejoins.Add(1)
		for i := 0; i < nSvc; i++ {
			req := trader.ImportRequest{ServiceType: svcName(i)}
			want, err := tg0.Import(req)
			if err != nil {
				return err
			}
			have, err := tg1.Import(req)
			if err != nil {
				return err
			}
			haveIDs := make(map[string]bool, len(have))
			for _, o := range have {
				haveIDs[o.ID] = true
			}
			wantIDs := make(map[string]bool, len(want))
			for _, o := range want {
				wantIDs[o.ID] = true
				if !haveIDs[o.ID] {
					if err := tg1.Install(o); err != nil {
						return err
					}
				}
			}
			for id := range haveIDs {
				if !wantIDs[id] {
					if err := tg1.Withdraw(id); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	group.SetMemberPolicy(&MemberPolicy{
		Breakers: policy.NewBreakerSet(policy.BreakerConfig{
			ConsecutiveFailures: 1,
			OpenFor:             300 * time.Microsecond,
		}),
		Retain:   true,
		OnRejoin: catchUp,
	})
	tgs := trader.NewRemote(group)
	if err := fe.AddShard("g", tgs); err != nil {
		t.Fatal(err)
	}

	offers := make([]trader.Offer, nSvc)
	for i := 0; i < nSvc; i++ {
		if _, err := fe.Export(svcName(i), ref(i), values.Null()); err != nil {
			t.Fatal(err)
		}
		os, err := fe.Import(trader.ImportRequest{ServiceType: svcName(i)})
		if err != nil || len(os) != 1 {
			t.Fatalf("setup import %s: %v (%d offers)", svcName(i), err, len(os))
		}
		offers[i] = os[0]
	}

	// Phase 1: flap the member and hammer sequenced updates (idempotent
	// reinstalls through the front-end) while plain shards join and drain
	// away — every AddShard/RemoveShard is a ring epoch change migrating
	// live offers while OnRejoin fires.
	var stopWorker, stopFlap atomic.Bool
	var workerWG, flapWG sync.WaitGroup
	workerWG.Add(1)
	go func() {
		defer workerWG.Done()
		for i := 0; !stopWorker.Load(); i++ {
			// Failures while the group is degraded are the storm, not a
			// test failure; the final state assertions are the oracle.
			_ = fe.Install(offers[i%nSvc])
		}
	}()
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		for !stopFlap.Load() {
			m1.fail.Store(true)
			time.Sleep(200 * time.Microsecond)
			m1.fail.Store(false)
			time.Sleep(500 * time.Microsecond)
		}
	}()

	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("x%d", i)
		if err := fe.AddShard(name, trader.New(name, repo)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if err := fe.RemoveShard(name); err != nil {
			t.Fatal(err)
		}
	}
	stopWorker.Store(true)
	workerWG.Wait()

	// Phase 2: the title race. Remove the group shard from the ring while
	// its member is still flapping — the drain's sequenced withdraw
	// stream interleaves with half-open probes and OnRejoin catch-ups.
	if err := fe.RemoveShard("g"); err != nil {
		t.Fatal(err)
	}
	stopFlap.Store(true)
	flapWG.Wait()
	m1.fail.Store(false)

	// Convergence kick: off the ring, the group still sequences updates.
	// Each no-op withdraw admits the pending half-open probe, so the
	// final OnRejoin syncs the flapped member to the healthy (drained)
	// one. Both replicas must reach empty — any offer left is one the
	// catch-up resurrected after the ring reassigned it.
	deadline := time.Now().Add(5 * time.Second)
	for tg0.Len() != 0 || tg1.Len() != 0 {
		_ = tgs.Withdraw("g/nosuch") // term "NoSuchOffer" on every member: a harmless sequenced update
		if time.Now().After(deadline) {
			t.Fatalf("drained group still holds offers: healthy=%d flapped=%d (rejoin resurrected reassigned offers?)",
				tg0.Len(), tg1.Len())
		}
		time.Sleep(time.Millisecond)
	}

	if rejoins.Load() == 0 {
		t.Fatal("no OnRejoin ran — the race never happened")
	}
	if got := group.Stats().Divergences; got != 0 {
		t.Fatalf("replicas diverged %d times under rejoin/epoch churn", got)
	}
	if group.Size() != 2 {
		t.Fatalf("group size = %d, want 2 (Retain must keep the flapping member)", group.Size())
	}
	for i := 0; i < nSvc; i++ {
		os, err := fe.Import(trader.ImportRequest{ServiceType: svcName(i)})
		if err != nil {
			t.Fatalf("post-drain import %s: %v", svcName(i), err)
		}
		if len(os) != 1 {
			t.Fatalf("post-drain %s resolves %d offers, want exactly 1", svcName(i), len(os))
		}
	}
}
