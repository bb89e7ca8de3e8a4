package coordination

import (
	"sync"
	"testing"

	"repro/internal/mgmt"
	"repro/internal/values"
)

// totals sums the bus's per-shard counters, the lines Management prints
// under bus.<shard>.*.
func totals(b *Bus) BusStats {
	var out BusStats
	for _, sh := range b.shards {
		s := sh.stats()
		out.Published += s.Published
		out.Delivered += s.Delivered
		out.Dropped += s.Dropped
		out.Stalls += s.Stalls
		out.Queued += s.Queued
	}
	return out
}

// TestBusStatsUnderContention publishes from many goroutines while
// Management dumps the bus's counters concurrently: the counters are
// atomics, so the reader never blocks publishers and the final tallies
// are exact (run with -race).
func TestBusStatsUnderContention(t *testing.T) {
	b := NewBus()
	m := mgmt.New()
	b.Instrument(m)
	b.Subscribe("t", nil, func(Event) {})
	b.Subscribe("t", nil, func(Event) {})

	const workers, per = 8, 100
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				m.Registry.Dump()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish("t", values.Null())
			}
		}()
	}
	wg.Wait()
	close(done)

	if st := totals(b); st.Published != workers*per || st.Delivered != 2*workers*per {
		t.Fatalf("stats = %d published / %d delivered, want %d / %d",
			st.Published, st.Delivered, workers*per, 2*workers*per)
	}
}
