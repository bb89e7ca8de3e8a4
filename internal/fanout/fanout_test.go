package fanout

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestDo: every index is visited exactly once, whatever the width, and
// no more than limit calls are ever in flight.
func TestDo(t *testing.T) {
	for _, c := range []struct{ n, limit int }{{0, 4}, {1, 4}, {3, 4}, {4, 4}, {100, 4}, {5, 1}, {5, 0}} {
		visits := make([]atomic.Int32, c.n)
		var inFlight, peak atomic.Int32
		Do(c.n, c.limit, func(i int) {
			now := inFlight.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			visits[i].Add(1)
			inFlight.Add(-1)
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Errorf("n=%d limit=%d: index %d visited %d times", c.n, c.limit, i, got)
			}
		}
		if p := int(peak.Load()); p > max(c.limit, 1) {
			t.Errorf("n=%d limit=%d: %d calls in flight at once", c.n, c.limit, p)
		}
	}
}

// TestDoBackToBack is TestDo run 200 times in a row, so nearly every
// fan-out after the first is served by workers an earlier one parked and
// by a pool an earlier one kept.
func TestDoBackToBack(t *testing.T) {
	for i := 0; i < 200 && !t.Failed(); i++ {
		TestDo(t)
	}
}

// TestDoWarmAllocatesNothing: once a fan-out of a prebuilt fn has parked
// its workers and kept its pool, the next one allocates nothing.
func TestDoWarmAllocatesNothing(t *testing.T) {
	var visits [4]atomic.Int32
	fn := func(i int) { visits[i].Add(1) }
	for _, limit := range []int{2, 4} {
		Do(len(visits), limit, fn)
		if allocs := testing.AllocsPerRun(100, func() { Do(len(visits), limit, fn) }); allocs != 0 {
			t.Errorf("a warm fan-out of 4 on %d workers = %v allocs, want 0", limit, allocs)
		}
	}
}

// TestDoNested: a Do inside fn finishes, even when the calls of the inner
// fan-outs can only finish together: every one of them waits until all
// 8 × 8 are in flight, which takes more goroutines at once than are ever
// parked.
func TestDoNested(t *testing.T) {
	const outer, inner = 8, 8
	var started, stuck atomic.Int32
	all, giveUp := make(chan struct{}), make(chan struct{})
	defer time.AfterFunc(10*time.Second, func() { close(giveUp) }).Stop()
	Do(outer, outer, func(int) {
		Do(inner, inner, func(int) {
			if started.Add(1) == outer*inner {
				close(all)
			}
			select {
			case <-all:
			case <-giveUp:
				stuck.Add(1)
			}
		})
	})
	if n := stuck.Load(); n > 0 {
		t.Errorf("%d of %d nested calls waited 10 s for the rest to start", n, outer*inner)
	}
}

// TestDoIdleWorkersExit: a fan-out wider than maxParked leaves at most
// maxParked workers parked, and once no fan-out takes them for parkedFor
// they exit, so the goroutine count returns to what it was before.
func TestDoIdleWorkersExit(t *testing.T) {
	waitParked(t, 0, 3*parkedFor) // what earlier tests parked exits first
	before := leakcheck.Now()
	// Every call waits until all 2 × maxParked are in flight, so the
	// fan-out runs on that many goroutines at once.
	all := make(chan struct{})
	var started, stuck atomic.Int32
	Do(2*maxParked, 2*maxParked, func(int) {
		if started.Add(1) == 2*maxParked {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			stuck.Add(1)
		}
	})
	if n := stuck.Load(); n > 0 {
		t.Fatalf("%d of %d calls waited 10 s for the rest to start", n, 2*maxParked)
	}
	waitParked(t, maxParked, parkedFor/2)
	leakcheck.Check(t, before, maxParked, parkedFor/2)
	leakcheck.Check(t, before, 0, 3*parkedFor)
	waitParked(t, 0, 0)
}

// waitParked waits up to grace for exactly n workers to be parked.
func waitParked(t *testing.T, n int32, grace time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(grace); parked.Load() != n; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers parked after %v, want %d", parked.Load(), grace, n)
		}
	}
}

// TestDoFreeListKeepsNoFn: a pool waiting to be reused holds no fn, so it
// keeps nothing a finished fan-out's fn captured alive.
func TestDoFreeListKeepsNoFn(t *testing.T) {
	big := make([]byte, 1<<20)
	Do(4, 4, func(i int) { big[i]++ })
	var kept []*pool
	for len(pools) > 0 {
		kept = append(kept, <-pools)
	}
	defer func() {
		for _, p := range kept {
			pools <- p
		}
	}()
	if len(kept) == 0 {
		t.Fatal("a fan-out kept no pool")
	}
	for _, p := range kept {
		if p.fn != nil || p.cursor.Load() != 0 {
			t.Errorf("a kept pool holds fn %v, cursor %d", p.fn != nil, p.cursor.Load())
		}
	}
}
