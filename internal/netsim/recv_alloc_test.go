package netsim

import (
	"context"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/naming"
)

// connPair dials ep on tr and returns both ends of the connection.
func connPair(t *testing.T, tr Transport, ep naming.Endpoint) (client, server Conn) {
	t.Helper()
	l, err := tr.Listen(ep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err = tr.Dial(context.Background(), l.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	server, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return client, server
}

// sendRecvAllocs is the steady-state allocation count of moving one frame
// from client to server, the receiver recycling it as the channel does.
func sendRecvAllocs(t *testing.T, client, server Conn) float64 {
	t.Helper()
	frame := make([]byte, 100)
	return testing.AllocsPerRun(200, func() {
		if err := client.Send(frame); err != nil {
			t.Fatal(err)
		}
		got, err := server.Recv()
		if err != nil || len(got) != len(frame) {
			t.Fatalf("Recv = %d bytes, %v", len(got), err)
		}
		bufpool.Put(got)
	})
}

// TestTCPRecvSteadyStateAllocs: the length prefix is read into the
// connection's own scratch and the frame into a pooled buffer.
func TestTCPRecvSteadyStateAllocs(t *testing.T) {
	client, server := connPair(t, NewTCP(), "tcp://127.0.0.1:0")
	if allocs := sendRecvAllocs(t, client, server); allocs != 0 {
		t.Errorf("Send + Recv over loopback TCP = %v allocs, want 0", allocs)
	}
}

// TestSimQueueReusesBacking: a receive queue that drains restarts at the
// head of its backing array instead of growing a new one per frame, and a
// popped slot no longer pins the frame its receiver has recycled.
func TestSimQueueReusesBacking(t *testing.T) {
	client, server := connPair(t, New(1), "sim://server")
	if allocs := sendRecvAllocs(t, client, server); allocs != 0 {
		t.Errorf("Send + Recv over a perfect sim link = %v allocs, want 0", allocs)
	}
	sc := server.(*simConn)
	for i := 0; i < 3; i++ { // a backlog, drained
		if err := client.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if got, err := server.Recv(); err != nil || got[0] != byte(i) {
			t.Fatalf("frame %d = %v, %v", i, got, err)
		}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.queue) != 0 || cap(sc.queue) < 3 {
		t.Errorf("drained queue has len %d cap %d, want the backing array of the backlog", len(sc.queue), cap(sc.queue))
	}
	for i, f := range sc.queue[:cap(sc.queue)] {
		if f != nil {
			t.Errorf("slot %d still holds a received frame", i)
		}
	}
}

// TestTCPWritesAllocateNothing pins the one write path: Send is a batch
// of one, and SendBatch writes from the connection's own iovec, so
// neither allocates in the steady state.
func TestTCPWritesAllocateNothing(t *testing.T) {
	client, server := connPair(t, NewTCP(), "tcp://127.0.0.1:0")
	frames := [][]byte{make([]byte, 100), make([]byte, 7), make([]byte, 300)}
	bs := client.(BatchSender)
	for _, tc := range []struct {
		name  string
		n     int
		write func() error
	}{
		{"Send", 1, func() error { return client.Send(frames[0]) }},
		{"SendBatch", len(frames), func() error { return bs.SendBatch(frames) }},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.write(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.n; i++ {
				got, err := server.Recv()
				if err != nil || len(got) != len(frames[i]) {
					t.Fatalf("Recv = %d bytes, %v", len(got), err)
				}
				bufpool.Put(got)
			}
		})
		if allocs != 0 {
			t.Errorf("%s over loopback TCP = %v allocs, want 0", tc.name, allocs)
		}
	}
}
