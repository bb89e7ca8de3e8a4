package channel

import (
	"fmt"
	"sync"

	"repro/internal/mgmt"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// This file is the batched send path shared by both channel ends: a
// bounded queue of encoded frames drained by one sender goroutine per
// connection into vectored writes. The batching is adaptive — the sender
// takes whatever is queued the moment it looks, so an isolated frame
// departs immediately (no delay timer) while concurrent senders coalesce
// into large writes under load — with maxBatchBytes bounding a single
// write and the queue's byte bound providing backpressure to enqueuers.
// Client side the queue belongs to a Session (every binding multiplexed
// over the session shares it); server side each accepted connection gets
// one so concurrent replies to a session batch the same way.

// Bounds of the batched send path at both channel ends. The queue bound
// is the backpressure point (enqueuers block when this many bytes are
// waiting); the batch bound caps one vectored write so a burst cannot form
// a multi-megabyte iovec.
const (
	sendQueueBytes = 1 << 20
	sendBatchBytes = 256 << 10
)

// batchInstruments are the nil-safe management hooks of one send queue.
type batchInstruments struct {
	framesPerWrite *mgmt.Histogram
	batchBytes     *mgmt.Histogram
	queueDepth     *mgmt.Gauge
}

// frameQueue is the bounded queue plus its sender goroutine. All fields
// below mu are guarded by it.
type frameQueue struct {
	conn          netsim.Conn
	batcher       netsim.BatchSender // nil when the transport has no vectored write
	maxQueueBytes int
	maxBatchBytes int
	onDead        func(error) // called once, off-lock, when a write fails
	ins           batchInstruments

	mu        sync.Mutex
	cond      *sync.Cond // space, drain and close transitions
	pend      [][]byte
	pendBytes int
	spare     [][]byte // recycled pend backing array
	writing   bool
	closed    bool
	err       error
	kick      chan struct{}
	done      chan struct{}

	deadOnce sync.Once
}

func newFrameQueue(conn netsim.Conn, maxQueue, maxBatch int, ins batchInstruments, onDead func(error)) *frameQueue {
	q := &frameQueue{
		conn:          conn,
		maxQueueBytes: maxQueue,
		maxBatchBytes: maxBatch,
		onDead:        onDead,
		ins:           ins,
		kick:          make(chan struct{}, 1),
		done:          make(chan struct{}),
	}
	q.batcher, _ = conn.(netsim.BatchSender)
	q.cond = sync.NewCond(&q.mu)
	go q.senderLoop()
	return q
}

// enqueue hands one frame to the sender, taking ownership of it: the
// queue recycles the buffer after the write (or on failure). Enqueue
// blocks while the queue is at its byte bound — that is the
// backpressure path — and fails with ErrSessionClosing once the queue has
// closed, or with the sender's sticky write error once the connection has
// failed; both match errors.Is(err, ErrDisconnected), so retry policy
// treats a frame lost to a mid-close race exactly like a broken wire.
func (q *frameQueue) enqueue(frame []byte) error {
	q.mu.Lock()
	for q.pendBytes >= q.maxQueueBytes && !q.closed && q.err == nil {
		q.cond.Wait()
	}
	if q.err != nil || q.closed {
		err := q.err
		q.mu.Unlock()
		wire.PutFrame(frame)
		if err != nil {
			return err
		}
		return ErrSessionClosing
	}
	q.pend = append(q.pend, frame)
	q.pendBytes += len(frame)
	if q.ins.queueDepth != nil {
		q.ins.queueDepth.Add(1)
	}
	select {
	case q.kick <- struct{}{}:
	default: // sender already has a wakeup pending
	}
	q.mu.Unlock()
	return nil
}

// flush blocks until every frame accepted so far has been written,
// returning the sender's sticky error if the connection failed along the
// way.
func (q *frameQueue) flush() error {
	q.mu.Lock()
	for (len(q.pend) > 0 || q.writing) && q.err == nil && !q.closed {
		q.cond.Wait()
	}
	err := q.err
	drained := len(q.pend) == 0 && !q.writing
	q.mu.Unlock()
	if err != nil {
		return err
	}
	if !drained {
		// Closed mid-flush with frames still queued: the final drain may
		// still write them, but the connection is going away — report the
		// uncertainty as a retriable disconnect.
		return ErrSessionClosing
	}
	return nil
}

// close stops the queue and waits for the sender to exit. Frames already
// accepted are still written (best effort — on a dead connection the
// writes fail instantly and the buffers are recycled), so a graceful
// session teardown flushes its tail.
func (q *frameQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return
	}
	q.closed = true
	close(q.kick) // enqueue kicks only under mu with closed==false
	q.cond.Broadcast()
	q.mu.Unlock()
	<-q.done
}

// senderLoop is the per-connection sender goroutine: the netchan-style
// drain loop. Each pass takes everything queued up to maxBatchBytes and
// writes it as one vectored batch; an isolated frame departs at once, so
// no frame waits on a timer.
func (q *frameQueue) senderLoop() {
	defer close(q.done)
	for range q.kick {
		q.drain()
	}
	// Queue closed: write whatever was accepted before the close.
	q.drain()
}

func (q *frameQueue) drain() {
	for {
		q.mu.Lock()
		if len(q.pend) == 0 || q.err != nil {
			if q.err != nil {
				q.dropLocked()
			}
			q.writing = false
			q.cond.Broadcast() // idle: wake flush waiters and blocked enqueuers
			q.mu.Unlock()
			return
		}
		// Take whatever is queued now, bounded by maxBatchBytes. The whole
		// slice swap is the common case; a byte-bound split leaves the tail
		// for the next pass.
		take := len(q.pend)
		bytes := 0
		for i := range q.pend {
			if i > 0 && bytes+len(q.pend[i]) > q.maxBatchBytes {
				take = i
				break
			}
			bytes += len(q.pend[i])
		}
		var batch [][]byte
		if take == len(q.pend) {
			batch = q.pend
			if q.spare != nil {
				q.pend = q.spare[:0]
				q.spare = nil
			} else {
				q.pend = nil
			}
		} else {
			// Byte-bound split: move the tail onto a fresh queue slice so
			// the batch owns its backing array exclusively — enqueuers
			// appending to pend while the write is in flight must never
			// touch the slots the sender is reading.
			var np [][]byte
			if q.spare != nil {
				np = q.spare[:0]
				q.spare = nil
			}
			np = append(np, q.pend[take:]...)
			clear(q.pend[take:])
			batch = q.pend[:take]
			q.pend = np
		}
		q.pendBytes -= bytes
		q.writing = true
		if q.ins.queueDepth != nil {
			q.ins.queueDepth.Add(-int64(take))
		}
		q.cond.Broadcast() // space freed: wake enqueuers blocked on the bound
		q.mu.Unlock()

		err := q.write(batch, bytes)

		q.mu.Lock()
		if cap(batch) > 0 && q.spare == nil {
			q.spare = batch[:0]
		}
		if err != nil && q.err == nil {
			q.err = fmt.Errorf("%w: %v", ErrDisconnected, err)
		}
		q.mu.Unlock()
		if err != nil {
			q.deadOnce.Do(func() {
				if q.onDead != nil {
					q.onDead(err)
				}
			})
		}
	}
}

// dropLocked recycles everything still queued after a write error; the
// frames can never depart.
func (q *frameQueue) dropLocked() {
	if q.ins.queueDepth != nil && len(q.pend) > 0 {
		q.ins.queueDepth.Add(-int64(len(q.pend)))
	}
	wire.PutFrames(q.pend) // recycles and nils every entry
	q.pend = q.pend[:0]
	q.pendBytes = 0
}

// write puts one batch on the wire — a single vectored write when the
// transport supports it — then recycles the frames.
func (q *frameQueue) write(batch [][]byte, bytes int) error {
	var err error
	if q.batcher != nil && len(batch) > 1 {
		err = q.batcher.SendBatch(batch)
	} else {
		for _, f := range batch {
			if err = q.conn.Send(f); err != nil {
				break
			}
		}
	}
	if q.ins.framesPerWrite != nil {
		q.ins.framesPerWrite.Observe(uint64(len(batch)))
	}
	if q.ins.batchBytes != nil {
		q.ins.batchBytes.Observe(uint64(bytes))
	}
	wire.PutFrames(batch) // recycles and nils every entry
	return err
}
