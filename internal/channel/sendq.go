package channel

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mgmt"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// This file is the batched send path shared by both channel ends: a
// bounded queue of encoded frames with no goroutine of its own. The
// caller that finds it idle is its writer and drains it into vectored
// writes; callers that find a writer at work append and return. A write
// takes whatever is queued the moment it looks, so an isolated frame
// departs at once (no delay timer) while concurrent senders coalesce
// under load, maxBatchBytes bounding one write and the byte bound pushing
// back on enqueuers. Client side the queue belongs to a Session (every
// binding multiplexed over it shares it); server side each accepted
// connection gets one so concurrent replies batch the same way.

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

// frameQueue is the bounded queue and the flag that names its writer.
// All fields below mu are guarded by it.
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
	writing   bool     // a caller is draining pend; pend is empty whenever this is false
	closed    bool
	err       error

	deadOnce sync.Once
}

func newFrameQueue(conn netsim.Conn, maxQueue, maxBatch int, ins batchInstruments, onDead func(error)) *frameQueue {
	q := &frameQueue{
		conn:          conn,
		maxQueueBytes: maxQueue,
		maxBatchBytes: maxBatch,
		onDead:        onDead,
		ins:           ins,
	}
	q.batcher, _ = conn.(netsim.BatchSender)
	q.cond = sync.NewCond(&q.mu)
	return q
}

// enqueue hands one frame to the queue, which recycles it after the
// write. A caller that finds the queue idle writes it and everything
// queued behind it, returning when its last write does: with a full
// socket buffer, when the peer reads, with no deadline (both transports
// return once the connection is closed). Enqueue blocks at the byte bound
// and fails with ErrSessionClosing once the queue has closed, or with the
// sticky write error once the connection has failed; both match
// ErrDisconnected, so retry policy treats them like a broken wire. An
// accepted frame reports nil even if its write fails: onDead kills the
// connection.
func (q *frameQueue) enqueue(frame []byte) error {
	writer, err := q.push(frame)
	if writer {
		q.drain()
	}
	return err
}

// push is enqueue's first half: it queues the frame and reports whether
// the caller became the writer, which then owes the queue one drain. A
// binding pushes under its order lock and drains after releasing it, so
// its ids reach the wire in order and its other callers join the batch.
func (q *frameQueue) push(frame []byte) (writer bool, err error) {
	q.mu.Lock()
	for q.pendBytes >= q.maxQueueBytes && !q.closed && q.err == nil {
		q.cond.Wait()
	}
	if q.err != nil || q.closed {
		err := q.err
		if err == nil {
			err = ErrSessionClosing
		}
		q.mu.Unlock()
		wire.PutFrame(frame)
		return false, err
	}
	q.pend = append(q.pend, frame)
	q.pendBytes += len(frame)
	if q.ins.queueDepth != nil {
		q.ins.queueDepth.Add(1)
	}
	writer = !q.writing
	q.writing = true
	q.mu.Unlock()
	return writer, nil
}

// flush blocks until every frame accepted so far has been written,
// returning the sticky write error if the connection failed along the
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
		// Closed mid-flush with frames still queued: the writer may still
		// write them, but the connection is going away — report the
		// uncertainty as a retriable disconnect.
		return ErrSessionClosing
	}
	return nil
}

// close stops the queue and waits for its writer, if any, to finish.
// Frames already accepted are still written (best effort — on a dead
// connection the writes fail instantly and the buffers are recycled), so
// a graceful session teardown flushes its tail.
func (q *frameQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	for q.writing {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// drain is the writer's loop, run by the caller that found the queue
// idle. Each pass takes everything queued up to maxBatchBytes and writes
// it as one vectored batch; the writer clears writing, under mu, only
// when it finds pend empty, so no frame is ever left queued without one.
func (q *frameQueue) drain() {
	// Yield once before the first write so that callers about to queue
	// join it. Without the yield the writer takes its own frame alone:
	// the next caller finds the queue busy an instant later and waits for
	// the following write, so under a pipelined load nearly every write
	// carries one frame.
	runtime.Gosched()
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
			// touch the slots the writer is reading.
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
// transport supports it, one Send per frame when it does not — then
// recycles the frames.
func (q *frameQueue) write(batch [][]byte, bytes int) error {
	var err error
	if q.batcher != nil {
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
