package experiments

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trader"
)

func TestFleetGapProbeArithmetic(t *testing.T) {
	p := newGapProbe(2)
	p.record(0, true)
	time.Sleep(5 * time.Millisecond)
	p.record(0, true)
	p.record(1, true)
	p.record(1, false)
	if w := p.worst(); w < 5*time.Millisecond {
		t.Fatalf("worst gap = %v, want >= 5ms", w)
	}
	if m := p.mean(); m < 2500*time.Microsecond || m > p.worst() {
		t.Fatalf("mean of per-target worst gaps = %v with worst %v over 2 targets", m, p.worst())
	}
	if p.hits.Load() != 3 || p.misses.Load() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", p.hits.Load(), p.misses.Load())
	}

	// reset drops everything measured before the window opens.
	p.reset()
	if p.worst() != 0 || p.mean() != 0 || p.hits.Load() != 0 || p.misses.Load() != 0 {
		t.Fatalf("after reset: worst %v mean %v hits %d misses %d", p.worst(), p.mean(), p.hits.Load(), p.misses.Load())
	}
	time.Sleep(2 * time.Millisecond)
	p.record(1, true)
	if w := p.worst(); w < 2*time.Millisecond || w >= 5*time.Millisecond+2*time.Millisecond {
		t.Fatalf("worst gap in the window = %v, want the one ~2ms gap", w)
	}

	// darkSince: target 0 last answered before the mark, target 1 after.
	mark := time.Now()
	time.Sleep(time.Millisecond)
	p.record(1, true)
	if d := p.darkSince(mark); d != 1 {
		t.Fatalf("darkSince = %d, want 1", d)
	}
}

func TestFleetWarmUpNamesTargetsNeverSeen(t *testing.T) {
	p := newGapProbe(3)
	// Target 1 is probed but never answers; target 2 is never probed.
	p.start(func(k int) (int, bool, error) { return k % 2, k%2 == 0, nil })
	err := p.warm(50 * time.Millisecond)
	if herr := p.halt(); herr != nil {
		t.Fatalf("halt: %v", herr)
	}
	if err == nil || !strings.Contains(err.Error(), "[1 2]") {
		t.Fatalf("warm = %v, want a timeout naming targets [1 2]", err)
	}
}

func TestFleetWarmUpReturnsProberError(t *testing.T) {
	boom := errors.New("boom")
	p := newGapProbe(1)
	p.start(func(int) (int, bool, error) { return 0, false, boom })
	if err := p.warm(5 * time.Second); !errors.Is(err, boom) {
		t.Fatalf("warm = %v, want the prober's error", err)
	}
	if err := p.halt(); !errors.Is(err, boom) {
		t.Fatalf("halt = %v, want the prober's error", err)
	}
}

// TestFleetWarmUpFailsWhenShardNodeIsDown is the hang the harness
// removes: with the only shard node down no offer is ever found (the
// front-end tolerates the dead leg and returns nothing), and a warm-up
// that only watches the seen-count waits forever.
func TestFleetWarmUpFailsWhenShardNodeIsDown(t *testing.T) {
	f := newFleet(1)
	defer f.close()
	f.types = e13Repo(4)
	fe := trader.NewSharded("fe", f.types, 0)
	if err := f.addShard(fe, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := e13Export(fe, 4, 1); err != nil {
		t.Fatal(err)
	}
	f.net.CrashHost("shard0")

	p := newGapProbe(4)
	for q := 0; q < 4; q++ {
		p.start(e13Prober(fe, q, 4))
	}
	const deadline = 500 * time.Millisecond
	start := time.Now()
	err := p.warm(deadline)
	if err == nil {
		t.Fatal("warm-up succeeded against a front-end whose only shard node is down")
	}
	if took := time.Since(start); took > deadline+time.Second {
		t.Fatalf("warm-up took %v, deadline %v", took, deadline)
	}
	p.halt()
	if p.misses.Load() == 0 {
		t.Fatal("no probe missed: the shard node is still answering")
	}
}

func TestFleetClosedLoopRunsEveryCallOnce(t *testing.T) {
	const workers, calls = 7, 1000
	seen := make([]atomic.Int32, calls)
	_, lats, err := closedLoop(workers, calls, func(w, n int) error {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d", w)
		}
		seen[n].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := range seen {
		if c := seen[n].Load(); c != 1 {
			t.Fatalf("call %d ran %d times", n, c)
		}
	}
	if len(lats) != calls {
		t.Fatalf("%d latencies for %d calls", len(lats), calls)
	}
	if p50, p99 := quantiles(lats); p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
	if p50, p99 := quantiles(nil); p50 != 0 || p99 != 0 {
		t.Fatalf("quantiles(nil) = %v, %v", p50, p99)
	}
}

func TestFleetClosedLoopFirstErrorStopsAllWorkers(t *testing.T) {
	const workers, calls = 8, 1_000_000
	boom := errors.New("boom")
	var ran atomic.Int64
	_, lats, err := closedLoop(workers, calls, func(_, n int) error {
		ran.Add(1)
		if n == 10 {
			return boom
		}
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if lats != nil {
		t.Fatalf("a failed loop returned %d latencies", len(lats))
	}
	if n := ran.Load(); n > calls/100 {
		t.Fatalf("%d calls ran after an error at call 10", n)
	}
}

func TestFleetGateSerialisesPasses(t *testing.T) {
	const k, tau = 8, 2 * time.Millisecond
	g := &gate{tau: tau}
	start := time.Now()
	if _, _, err := closedLoop(k, k, func(_, _ int) error { g.pass(); return nil }); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < k*tau {
		t.Fatalf("%d concurrent passes took %v, want >= %v", k, took, k*tau)
	}
	if g.passes.Load() != k {
		t.Fatalf("passes = %d, want %d", g.passes.Load(), k)
	}
}
