package fanout

import (
	"sync/atomic"
	"testing"
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
