package transactions

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// The lock manager's safety property: at no instant do two transactions
// hold the same key exclusively, and no reader coexists with a writer.
// A fleet of goroutines performs random acquire/release cycles while an
// auditor checks every interleaving's outcome through per-key ownership
// counters maintained under the locks themselves — if mutual exclusion
// ever failed, the counters would tear.
func TestLockManagerMutualExclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		lm := newLockManager()
		keys := []string{"a", "b", "c"}
		type guard struct {
			mu      sync.Mutex
			writers int
			readers int
		}
		guards := map[string]*guard{}
		for _, k := range keys {
			guards[k] = &guard{}
		}
		violated := false
		var vmu sync.Mutex
		fail := func() {
			vmu.Lock()
			violated = true
			vmu.Unlock()
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed + int64(w)))
				for i := 0; i < 40; i++ {
					tx := uint64(w*1000 + i + 1)
					key := keys[r.Intn(len(keys))]
					mode := lockShared
					if r.Intn(2) == 0 {
						mode = lockExclusive
					}
					err := lm.acquire(context.Background(), tx, key, mode)
					if err != nil {
						continue // deadlock verdicts are fine; safety is the claim
					}
					g := guards[key]
					g.mu.Lock()
					if mode == lockExclusive {
						if g.writers != 0 || g.readers != 0 {
							fail()
						}
						g.writers++
					} else {
						if g.writers != 0 {
							fail()
						}
						g.readers++
					}
					g.mu.Unlock()

					g.mu.Lock()
					if mode == lockExclusive {
						g.writers--
					} else {
						g.readers--
					}
					g.mu.Unlock()
					lm.releaseAll(tx)
				}
			}(w)
		}
		wg.Wait()
		vmu.Lock()
		defer vmu.Unlock()
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Liveness companion: after every transaction releases, the manager is
// empty — no leaked entries, no stranded waiters.
func TestLockManagerDrainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		lm := newLockManager()
		r := rand.New(rand.NewSource(seed))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					tx := uint64(w*100 + i + 1)
					key := string(rune('a' + (w+i)%3))
					mode := lockShared
					if (w+i)%2 == 0 {
						mode = lockExclusive
					}
					if err := lm.acquire(context.Background(), tx, key, mode); err == nil {
						lm.releaseAll(tx)
					}
				}
			}(w)
		}
		wg.Wait()
		_ = r
		lm.mu.Lock()
		defer lm.mu.Unlock()
		return len(lm.locks) == 0 && len(lm.waits) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestCancelledWaiterUnblocksQueue: T1 holds k shared, T2 waits for it
// exclusive and T3 shared behind T2. When T2's context ends, nothing is
// left between T3 and the shared holder, so T3 is granted before T2's
// acquire returns — not when T1 releases.
func TestCancelledWaiterUnblocksQueue(t *testing.T) {
	lm := newLockManager()
	queued := func(n int) {
		for {
			lm.mu.Lock()
			got := len(lm.locks["k"].queue)
			lm.mu.Unlock()
			if got == n {
				return
			}
			runtime.Gosched()
		}
	}
	if err := lm.acquire(context.Background(), 1, "k", lockShared); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel := context.WithCancel(context.Background())
	t2, t3 := make(chan error, 1), make(chan error, 1)
	go func() { t2 <- lm.acquire(ctx2, 2, "k", lockExclusive) }()
	queued(1)
	go func() { t3 <- lm.acquire(context.Background(), 3, "k", lockShared) }()
	queued(2)
	cancel()
	if err := <-t2; !errors.Is(err, context.Canceled) {
		t.Fatalf("T2's acquire = %v, want context.Canceled", err)
	}
	lm.mu.Lock()
	mode, granted := lm.locks["k"].holders[3]
	waiting := len(lm.locks["k"].queue)
	lm.mu.Unlock()
	if !granted || mode != lockShared || waiting != 0 {
		t.Fatalf("after T2 gave up: T3 holds k %v (mode %v), %d still queued", granted, mode, waiting)
	}
	if err := <-t3; err != nil {
		t.Fatal(err)
	}
	lm.releaseAll(1)
	lm.releaseAll(3)
	if len(lm.locks) != 0 || len(lm.waits) != 0 {
		t.Fatalf("locks %v, waits %v left after every release", lm.locks, lm.waits)
	}
}
