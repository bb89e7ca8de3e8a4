package channel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// gatedConn is a connection whose writes block until the test admits them
// one by one (or, once admit is closed, all at once).
type gatedConn struct {
	admit chan struct{}
	sent  atomic.Int64
}

func (c *gatedConn) Send([]byte) error     { <-c.admit; c.sent.Add(1); return nil }
func (c *gatedConn) Recv() ([]byte, error) { return nil, netsim.ErrClosed }
func (c *gatedConn) Close() error          { return nil }

// TestSendQueueBackpressure exercises the queue's byte bound, which the
// 1 MiB production constant keeps out of every other test's reach:
// enqueuers park once the bound's worth of bytes is waiting, resume as the
// sender drains, and wake with ErrSessionClosing when the queue closes
// under them.
func TestSendQueueBackpressure(t *testing.T) {
	const frameLen, bound = 32, 64
	conn := &gatedConn{admit: make(chan struct{})}
	q := newFrameQueue(conn, bound, sendBatchBytes, batchInstruments{}, nil)
	enqueue := func() error {
		return q.enqueue(append(wire.GetFrame(frameLen), make([]byte, frameLen)...))
	}
	queued := func() (bytes int, writing bool) {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.pendBytes, q.writing
	}

	// One frame in the (blocked) write, then fill the queue to its bound.
	if err := enqueue(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { b, w := queued(); return w && b == 0 })
	for i := 0; i < bound/frameLen; i++ {
		if err := enqueue(); err != nil {
			t.Fatal(err)
		}
	}

	const extra = 4
	results := make(chan error, extra)
	for i := 0; i < extra; i++ {
		go func() { results <- enqueue() }()
	}
	settle := func(want int) {
		t.Helper()
		for i := 0; i < want; i++ {
			select {
			case err := <-results:
				if err != nil {
					t.Fatalf("resumed enqueue failed: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("only %d of %d parked enqueuers resumed", i, want)
			}
		}
		select {
		case err := <-results:
			t.Fatalf("an enqueuer got past the byte bound (err=%v)", err)
		case <-time.After(50 * time.Millisecond):
		}
		if b, _ := queued(); b != bound {
			t.Fatalf("%d bytes queued, bound is %d", b, bound)
		}
	}
	settle(0) // everyone is parked at the bound

	// Admit the write in flight: the sender takes the whole queue as its
	// next batch, which frees exactly the bound — room for two more frames.
	conn.admit <- struct{}{}
	settle(bound / frameLen)

	// Closing the queue wakes whoever is still parked; their frames were
	// never accepted.
	closed := make(chan struct{})
	go func() { q.close(); close(closed) }()
	for i := 0; i < extra-bound/frameLen; i++ {
		select {
		case err := <-results:
			if !errors.Is(err, ErrSessionClosing) || !errors.Is(err, ErrDisconnected) {
				t.Fatalf("enqueue across close = %v, want ErrSessionClosing", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("parked enqueuer did not wake on close")
		}
	}
	// Everything that was accepted is still written before close returns.
	close(conn.admit)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("close did not return once the connection drained")
	}
	if got, want := conn.sent.Load(), int64(1+2*bound/frameLen); got != want {
		t.Fatalf("%d frames written, %d were accepted", got, want)
	}
}
