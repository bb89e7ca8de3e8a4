package netsim

import (
	"context"
	"sync"
	"testing"
)

// TestStatsUnderContention sends frames from many goroutines while a
// reader polls Stats: frame counters are atomics, so concurrent reads
// are safe and the final tallies exact (run with -race).
func TestStatsUnderContention(t *testing.T) {
	n := New(11)
	startEcho(t, n, "sim://server")
	conn, err := n.DialFrom(context.Background(), "alpha", "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const workers, per = 4, 25
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				n.Stats()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := conn.Send([]byte("m")); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
				if _, err := conn.Recv(); err != nil {
					t.Errorf("Recv: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)

	st := n.Stats()
	// Each round trip is two sends (request + echo), all delivered.
	want := uint64(2 * workers * per)
	if st.Sent != want || st.Delivered != want || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want sent=delivered=%d dropped=0", st, want)
	}
}

// TestPartitionDropsCounted: frames black-holed by a partition are
// tallied separately from stochastic drops. (Management reads these same
// counters; odp's TestManagementReadsStats checks the agreement.)
func TestPartitionDropsCounted(t *testing.T) {
	n := New(3)
	startEcho(t, n, "sim://server")
	conn, err := n.DialFrom(context.Background(), "alpha", "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	n.Partition("alpha", "server")
	for i := 0; i < 3; i++ {
		if err := conn.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Sent != 3 || st.Partitioned != 3 || st.Dropped != 3 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 3 sent, 3 partitioned drops, none delivered", st)
	}
}
