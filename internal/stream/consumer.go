package stream

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/values"
	"repro/internal/wire"
)

// ConsumerConfig configures the consuming end of a stream interface.
type ConsumerConfig struct {
	// Window is the per-stream credit window in elements (default 256):
	// how far a producer may run ahead of consumption. It is also the
	// consumer's per-stream buffer ceiling — the two are the same number,
	// which is the whole point of credit flow control.
	Window int
}

// Consumer is the consuming end of a stream interface: register it as a
// servant (it implements channel.Handler and channel.StreamReceiver) and
// Accept the inbound streams producers open. Each stream becomes an
// Inbound whose buffer is bounded by the credit window — a consumer that
// stops reading stalls exactly one producer and nothing else.
type Consumer struct {
	cfg ConsumerConfig

	mu sync.Mutex
	// streams holds every stream from open until it is finished and
	// drained; then its final counts move into retired.
	streams map[streamKey]*Inbound
	retired ConsumerStats
	pending []*Inbound    // opened, not yet Accepted
	notify  chan struct{} // signalled when pending grows
	closed  bool
}

type streamKey struct{ binding, stream uint64 }

// NewConsumer creates a consumer end with the given per-stream window.
func NewConsumer(cfg ConsumerConfig) *Consumer {
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	return &Consumer{
		cfg:     cfg,
		streams: make(map[streamKey]*Inbound),
		notify:  make(chan struct{}, 1),
	}
}

var _ channel.Handler = (*Consumer)(nil)
var _ channel.StreamReceiver = (*Consumer)(nil)

// Invoke implements channel.Handler: stream interfaces declare no
// operations, so every call is refused.
func (c *Consumer) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	return "", nil, &channel.StageError{Code: channel.CodeNoSuchOperation, Detail: "stream interface has no operations"}
}

// Accept returns the next stream a producer has opened, blocking until
// one arrives. The stream is already flowing when Accept returns — the
// initial credit grant went out at open, so elements pipeline into the
// Inbound's window-bounded buffer while the application gets around to
// reading them.
func (c *Consumer) Accept(ctx context.Context) (*Inbound, error) {
	for {
		c.mu.Lock()
		if len(c.pending) > 0 {
			in := c.pending[0]
			c.pending = c.pending[1:]
			c.mu.Unlock()
			return in, nil
		}
		c.mu.Unlock()
		select {
		case <-c.notify:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// StreamBatch implements channel.StreamReceiver. It runs on the server
// connection's read loop and never blocks: deliveries go into the
// stream's window-bounded buffer, and grants go out through the conn's
// thread-safe reply writer.
func (c *Consumer) StreamBatch(b channel.StreamBatch) {
	key := streamKey{b.Binding, b.Stream}
	switch b.Phase {
	case channel.StreamOpen:
		in := &Inbound{
			c:      c,
			key:    key,
			flow:   b.Flow,
			grant:  b.Grant,
			notify: make(chan struct{}, 1),
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return // no grant: the producer stays parked at zero credit
		}
		c.streams[key] = in
		c.pending = append(c.pending, in)
		c.mu.Unlock()
		select {
		case c.notify <- struct{}{}:
		default:
		}
		// The initial window, granted before anyone Accepts: open is the
		// only round-trip a stream ever pays.
		in.issueGrant(uint64(c.cfg.Window), windowBytes)
	case channel.StreamElems:
		c.mu.Lock()
		in := c.streams[key]
		c.mu.Unlock()
		if in == nil {
			return
		}
		in.push(b)
	case channel.StreamClose:
		c.mu.Lock()
		in := c.streams[key]
		c.mu.Unlock()
		if in != nil {
			in.finish(b.Err)
		}
	}
}

// Close marks the consumer closed: new opens are ignored and every open
// stream finishes with channel.ErrStreamClosed.
func (c *Consumer) Close() {
	c.mu.Lock()
	c.closed = true
	streams := make([]*Inbound, 0, len(c.streams))
	for _, in := range c.streams {
		streams = append(streams, in)
	}
	c.mu.Unlock()
	for _, in := range streams {
		in.finish(channel.ErrStreamClosed)
	}
}

// ConsumerStats sums a consumer's streams, finished ones included.
type ConsumerStats struct {
	Streams  int    // streams open, or finished with elements still buffered
	Received uint64 // elements arrived from the wire (including dropped)
	Consumed uint64 // elements the application has read, or the stub dropped
	Dropped  uint64 // mistyped elements the server stub removed
	SeqGaps  uint64 // batches arriving out of FIFO position
	Batches  uint64 // flow-batch frames delivered
	Queued   int64  // elements buffered awaiting Recv
}

func (s *ConsumerStats) add(in InboundStats) {
	s.Received += in.Received
	s.Consumed += in.Consumed
	s.Dropped += in.Dropped
	s.SeqGaps += in.SeqGaps
	s.Batches += in.Batches
	s.Queued += int64(in.Queued)
}

// Stats sums the accounting of every stream the consumer has had.
func (c *Consumer) Stats() ConsumerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.retired
	out.Streams = len(c.streams)
	for _, in := range c.streams {
		out.add(in.Stats())
	}
	return out
}

// retire moves a finished, drained stream's final counts out of the
// stream table. The caller must not hold in.mu.
func (c *Consumer) retire(in *Inbound) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.streams[in.key] == in {
		delete(c.streams, in.key)
		c.retired.add(in.Stats())
	}
}

// InboundStats is a snapshot of one inbound stream's accounting.
type InboundStats struct {
	Received     uint64 // elements arrived from the wire (including dropped)
	Consumed     uint64 // elements the application has read
	Dropped      uint64 // mistyped elements the server stub removed
	SeqGaps      uint64 // batches arriving out of FIFO position
	MaxQueued    uint64 // buffer high-water mark (bounded by the window)
	GrantedElems uint64 // cumulative element credit granted
	Batches      uint64 // flow-batch frames delivered
	Queued       int    // elements buffered awaiting Recv
}

// Inbound is one stream as seen by the consumer: a window-bounded element
// queue fed by the connection read loop and drained by Recv. Credit
// grants flow back automatically as the application consumes.
type Inbound struct {
	c     *Consumer
	key   streamKey
	flow  string
	grant func(cumElems, cumBytes uint64)

	mu        sync.Mutex
	queue     []values.Value
	recvElems uint64 // wire-arrived elements, kept + dropped
	recvBytes uint64
	consElems uint64 // consumed: read by the app, or dropped by the stub
	consBytes uint64
	granted   uint64 // cumulative element credit issued
	grantedB  uint64
	dropped   uint64
	seqGaps   uint64
	maxQueued uint64
	batches   uint64
	done      bool
	err       error

	notify    chan struct{}
	lastGrant time.Time
}

// Flow returns the stream's flow name.
func (in *Inbound) Flow() string { return in.flow }

// push absorbs one element batch on the read-loop goroutine.
func (in *Inbound) push(b channel.StreamBatch) {
	var batchBytes uint64
	for _, v := range b.Elems {
		batchBytes += uint64(wire.ValueSizeHint(v))
	}
	in.mu.Lock()
	if in.done {
		in.mu.Unlock()
		return
	}
	// FIFO check: the batch's Seq is the producer's cumulative element
	// count before it, which must equal what we have seen arrive.
	if b.Seq != in.recvElems {
		in.seqGaps++
	}
	in.queue = append(in.queue, b.Elems...)
	if q := uint64(len(in.queue)); q > in.maxQueued {
		in.maxQueued = q
	}
	in.recvElems += uint64(len(b.Elems)) + b.DroppedElems
	in.recvBytes += batchBytes + b.DroppedBytes
	// Dropped elements are consumed on arrival: the producer debited its
	// window for them, and nothing will ever Recv them, so their credit
	// comes back immediately or the window shrinks by every drop.
	in.consElems += b.DroppedElems
	in.consBytes += b.DroppedBytes
	in.dropped += b.DroppedElems
	in.batches++
	in.mu.Unlock()
	in.maybeGrant()
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

// Recv returns the next element, blocking until one arrives. At orderly
// end-of-stream it returns io.EOF once the buffer drains; an abnormal
// close returns the cause (matching channel.ErrDisconnected).
func (in *Inbound) Recv(ctx context.Context) (values.Value, error) {
	for {
		in.mu.Lock()
		if len(in.queue) > 0 {
			v := in.queue[0]
			in.queue[0] = values.Value{}
			in.queue = in.queue[1:]
			if len(in.queue) == 0 {
				in.queue = nil // let the drained backing array go
			}
			in.consElems++
			in.consBytes += uint64(wire.ValueSizeHint(v))
			drained := in.done && in.queue == nil
			in.mu.Unlock()
			if drained {
				in.c.retire(in)
			}
			in.maybeGrant()
			return v, nil
		}
		if in.done {
			err := in.err
			in.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return values.Value{}, err
		}
		in.mu.Unlock()
		select {
		case <-in.notify:
		case <-ctx.Done():
			return values.Value{}, ctx.Err()
		}
	}
}

// maybeGrant tops the producer's window back up once half of it has been
// consumed since the last grant — batching grants the same way the data
// path batches elements, so the back-channel costs one bare-header frame
// per half-window rather than one per element.
func (in *Inbound) maybeGrant() {
	in.mu.Lock()
	targetE := in.consElems + uint64(in.c.cfg.Window)
	targetB := in.consBytes + windowBytes
	due := !in.done &&
		(targetE-in.granted >= uint64(in.c.cfg.Window)/2 ||
			targetB-in.grantedB >= windowBytes/2)
	in.mu.Unlock()
	if due {
		in.issueGrant(targetE, targetB)
	}
}

// issueGrant records and transmits one cumulative grant.
func (in *Inbound) issueGrant(cumElems, cumBytes uint64) {
	in.mu.Lock()
	if in.done || (cumElems <= in.granted && cumBytes <= in.grantedB) {
		in.mu.Unlock()
		return
	}
	if cumElems > in.granted {
		in.granted = cumElems
	}
	if cumBytes > in.grantedB {
		in.grantedB = cumBytes
	}
	in.lastGrant = time.Now()
	grant, granted, grantedB := in.grant, in.granted, in.grantedB
	in.mu.Unlock()
	// Cumulative totals: the producer's gate keeps the maximum, so two
	// grants crossing on the way out cost nothing.
	grant(granted, grantedB)
}

// finish marks the stream done and wakes Recv. A stream with nothing
// left to read retires at once; otherwise Recv retires it with the last
// element.
func (in *Inbound) finish(err error) {
	in.mu.Lock()
	if in.done {
		in.mu.Unlock()
		return
	}
	in.done = true
	in.err = err
	drained := len(in.queue) == 0
	in.mu.Unlock()
	if drained {
		in.c.retire(in)
	}
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

// Stats snapshots the stream's accounting.
func (in *Inbound) Stats() InboundStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return InboundStats{
		Received:     in.recvElems,
		Consumed:     in.consElems,
		Dropped:      in.dropped,
		SeqGaps:      in.seqGaps,
		MaxQueued:    in.maxQueued,
		GrantedElems: in.granted,
		Batches:      in.batches,
		Queued:       len(in.queue),
	}
}
