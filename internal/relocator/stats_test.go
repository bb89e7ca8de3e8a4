package relocator

import (
	"sync"
	"testing"
)

// TestStatsUnderContention hammers hit and miss lookups from many
// goroutines while another reads Stats, then checks the counters are
// exact: the counters are atomics on the lock-free read path, so no
// observation may be lost and no reader may race (run with -race).
func TestStatsUnderContention(t *testing.T) {
	r := New()
	hit := ref(1, "sim://alpha", 0)
	if err := r.Register(hit); err != nil {
		t.Fatal(err)
	}
	miss := ref(2, "sim://alpha", 0)

	const workers, per = 8, 200
	done := make(chan struct{})
	go func() { // concurrent stats reader
		for {
			select {
			case <-done:
				return
			default:
				r.Stats()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := r.Lookup(hit.ID); err != nil {
					t.Errorf("Lookup(hit): %v", err)
					return
				}
				if _, err := r.Lookup(miss.ID); err == nil {
					t.Error("Lookup(miss) succeeded")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)

	if st := r.Stats(); st != (Stats{Lookups: 2 * workers * per, Misses: workers * per}) {
		t.Fatalf("stats = %+v, want %d lookups, %d misses, no relocates",
			st, 2*workers*per, workers*per)
	}
}
