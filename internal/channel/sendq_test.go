package channel

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/values"
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
// writer drains, and wake with ErrSessionClosing when the queue closes
// under them. The first enqueuer finds the queue idle, so it is the
// writer: it stays in the gated write until the connection drains, and
// then returns nil.
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
	writer := make(chan error, 1)
	go func() { writer <- enqueue() }()
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

	// Admit the write in flight: the writer takes the whole queue as its
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
	select {
	case err := <-writer:
		if err != nil {
			t.Fatalf("the writer's own enqueue = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the writer did not return once the connection drained")
	}
	if got, want := conn.sent.Load(), int64(1+2*bound/frameLen); got != want {
		t.Fatalf("%d frames written, %d were accepted", got, want)
	}
}

// recordConn records the sender and sequence number that every frame
// written to it carries in its first four bytes, before the write returns
// (the queue recycles the buffer after).
type recordConn struct {
	mu     sync.Mutex
	seqs   map[uint16][]uint16 // per sender, the sequence numbers written, in order
	frames int
}

func (c *recordConn) Send(f []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, n := binary.BigEndian.Uint16(f), binary.BigEndian.Uint16(f[2:])
	c.seqs[g] = append(c.seqs[g], n)
	c.frames++
	return nil
}

func (c *recordConn) Recv() ([]byte, error) { return nil, netsim.ErrClosed }
func (c *recordConn) Close() error          { return nil }

func (c *recordConn) written(g uint16) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seqs[g])
}

// recordBatchConn is a recordConn with a vectored write.
type recordBatchConn struct{ *recordConn }

func (c recordBatchConn) SendBatch(frames [][]byte) error {
	for _, f := range frames {
		c.recordConn.Send(f)
	}
	runtime.Gosched() // a write takes time: let enqueuers pile up behind it
	return nil
}

// TestFrameQueueStrandsNothing drives the combining queue from many
// goroutines at once, with a byte bound and a batch cap small enough
// that enqueuers park and batches split: every accepted frame is written
// exactly once and in its sender's order, a flush that returns nil has
// seen its caller's earlier frames written, and two enqueuers racing the
// writer's exit never leave a frame queued with nobody writing.
func TestFrameQueueStrandsNothing(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			rc := &recordConn{seqs: make(map[uint16][]uint16)}
			var conn netsim.Conn = rc
			if batched {
				conn = recordBatchConn{rc}
			}
			q := newFrameQueue(conn, 4<<10, 1<<10, batchInstruments{}, nil)
			frame := func(g, n uint16, size int) []byte {
				f := binary.BigEndian.AppendUint16(wire.GetFrame(size), g)
				f = binary.BigEndian.AppendUint16(f, n)
				return append(f, make([]byte, size-4)...)
			}

			const senders, perSender = 32, 200
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g uint16) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for n := uint16(0); n < perSender; n++ {
						if err := q.enqueue(frame(g, n, 4+rng.Intn(400))); err != nil {
							t.Errorf("sender %d frame %d: %v", g, n, err)
							return
						}
						if rng.Intn(16) != 0 {
							continue
						}
						if err := q.flush(); err != nil {
							t.Errorf("sender %d flush: %v", g, err)
							return
						}
						if got := rc.written(g); got < int(n)+1 {
							t.Errorf("sender %d: flush returned with %d of its %d frames written", g, got, n+1)
							return
						}
					}
				}(uint16(g))
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("senders still blocked after 10 s: a frame was left queued with nobody writing")
			}
			for g := uint16(0); g < senders; g++ {
				seq := rc.seqs[g]
				if len(seq) != perSender {
					t.Fatalf("sender %d: %d frames written, %d accepted", g, len(seq), perSender)
				}
				for i, n := range seq {
					if n != uint16(i) {
						t.Fatalf("sender %d: write %d carried frame %d", g, i, n)
					}
				}
			}

			// Two single-frame enqueuers racing the writer's exit: once both
			// have returned, whichever wrote has drained the queue.
			for i := 0; i < 10000; i++ {
				var two sync.WaitGroup
				for g := uint16(senders); g < senders+2; g++ {
					two.Add(1)
					go func(g uint16) {
						defer two.Done()
						if err := q.enqueue(frame(g, uint16(i), 8)); err != nil {
							t.Error(err)
						}
					}(g)
				}
				two.Wait()
				q.mu.Lock()
				stranded, writing := len(q.pend), q.writing
				q.mu.Unlock()
				if stranded != 0 || writing {
					t.Fatalf("iteration %d: %d frames queued, writing=%v, after every enqueuer returned", i, stranded, writing)
				}
			}
			q.close()
			if want := senders*perSender + 2*10000; rc.frames != want {
				t.Fatalf("%d frames written, %d accepted", rc.frames, want)
			}
		})
	}
}

// heldBatchConn wraps a connection in a vectored write that records each
// batch's length and holds the first write until the test releases it.
type heldBatchConn struct {
	netsim.Conn
	entered, release chan struct{}
	first            sync.Once

	mu    sync.Mutex
	sizes []int
}

func (c *heldBatchConn) SendBatch(frames [][]byte) error {
	c.mu.Lock()
	c.sizes = append(c.sizes, len(frames))
	c.mu.Unlock()
	c.first.Do(func() { close(c.entered); <-c.release })
	for _, f := range frames {
		if err := c.Conn.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// heldTransport dials through the embedded transport and hands out the
// one heldBatchConn.
type heldTransport struct {
	netsim.Transport
	conn *heldBatchConn
}

func (t *heldTransport) Dial(ctx context.Context, ep naming.Endpoint) (netsim.Conn, error) {
	c, err := t.Transport.Dial(ctx, ep)
	if err != nil {
		return nil, err
	}
	t.conn.Conn = c
	return t.conn, nil
}

// TestOneBindingBatchesItsPipeline: 64 callers pipelined on ONE binding
// queue their frames behind a held write and leave in one vectored
// write. The writer writes after releasing the binding's order lock; a
// writer that held it would make every sibling wait for its write, and
// each frame would depart alone.
func TestOneBindingBatchesItsPipeline(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	conn := &heldBatchConn{entered: make(chan struct{}), release: make(chan struct{})}
	tr := &heldTransport{Transport: env.net, conn: conn}
	mgr := NewSessionManager(tr)
	defer mgr.Close()
	b, err := Bind(env.ref, BindConfig{Transport: tr, Sessions: mgr})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	defer wg.Wait() // after the release below: no caller outlives the test
	release := sync.OnceFunc(func() { close(conn.release) })
	defer release()

	const calls = 64
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("call-%d", i)
			term, res, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Str(want)})
			if err != nil || term != "OK" {
				t.Errorf("call %d: %q %v", i, term, err)
				return
			}
			if got, _ := res[0].AsString(); got != want {
				t.Errorf("call %d got %q", i, got)
			}
		}(i)
	}
	<-conn.entered
	sess := mgr.peek(env.ref.Endpoint)
	if sess == nil {
		t.Fatal("no live session")
	}
	conn.mu.Lock()
	held := conn.sizes[0]
	conn.mu.Unlock()
	// Every caller the held write did not carry queues behind it.
	waitFor(t, func() bool {
		sess.q.mu.Lock()
		defer sess.q.mu.Unlock()
		return len(sess.q.pend) == calls-held
	})
	release()
	wg.Wait()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if slices.Max(conn.sizes) < 2 {
		t.Fatalf("frames per write = %v, want a write carrying more than one frame", conn.sizes)
	}
}
