package coordination

import (
	"sync"
	"testing"

	"repro/internal/values"
)

// TestBusStatsUnderContention publishes from many goroutines while
// another reads Stats concurrently: the counters are atomics, so the
// reader never blocks publishers and the final tallies are exact
// (run with -race).
func TestBusStatsUnderContention(t *testing.T) {
	b := NewBus()
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
				b.Stats()
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

	if st := b.Stats(); st.Published != workers*per || st.Delivered != 2*workers*per {
		t.Fatalf("stats = %d published / %d delivered, want %d / %d",
			st.Published, st.Delivered, workers*per, 2*workers*per)
	}
}
