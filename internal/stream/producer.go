package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/channel"
	"repro/internal/values"
	"repro/internal/wire"
)

// ProducerConfig has no fields: a producer's only behaviour is to wait
// for credit. The type stays only because the frozen bench/stream.go
// passes ProducerConfig{} to Open.
type ProducerConfig struct{}

// ProducerStats is a snapshot of one producer's counters.
type ProducerStats struct {
	Sent        uint64 // elements handed to the wire
	Batches     uint64 // FlowBatch frames sent
	Stalls      uint64 // Sends that blocked at zero credit
	StallNs     uint64 // total time blocked awaiting credit
	MaxBuffered uint64 // high-water mark of elements buffered locally
	CreditElems int64  // window currently open, elements
	CreditBytes int64  // window currently open, bytes
}

// Producer is the producing end of one flow stream: the computational
// object writes elements with Send, and the engineering machinery below
// batches them onto the session data plane as credit admits them. Send is
// safe for concurrent use, but elements are sequenced by arrival at the
// gate — a single writing goroutine is the usual discipline and the one
// that makes per-flow FIFO meaningful end to end.
type Producer struct {
	fs   *channel.FlowStream
	gate *creditGate

	mu     sync.RWMutex // held shared by Send, exclusively by Close
	pump   chan values.Value
	closed bool

	done    chan struct{}
	sent    atomic.Uint64
	batches atomic.Uint64
	maxBuf  atomic.Uint64

	errMu sync.Mutex
	err   error // sticky wire failure
}

// Open opens a credit-managed stream on the named flow of a bound stream
// interface. The producer holds zero credit until the consumer's initial
// grant arrives; the first Send blocks for it (the open round-trip is the
// stream's only latency cost — after it, credit pipelines with data).
func Open(ctx context.Context, b *channel.Binding, flow string, _ ProducerConfig) (*Producer, error) {
	gate := new(creditGate)
	fs, err := b.OpenFlowStream(ctx, flow, gate.grant, gate.fail)
	if err != nil {
		return nil, err
	}
	p := &Producer{
		fs:   fs,
		gate: gate,
		pump: make(chan values.Value, sendBuffer),
		done: make(chan struct{}),
	}
	go p.run()
	return p, nil
}

// Send writes one element to the stream. It blocks while the credit
// window is exhausted (the consumer is behind) or the local buffer is
// full — that blocking IS the backpressure; memory never grows past
// sendBuffer + the batch in flight. A dead stream returns an error chain
// matching both channel.ErrStreamClosed and channel.ErrDisconnected.
func (p *Producer) Send(ctx context.Context, v values.Value) error {
	if err := p.stickyErr(); err != nil {
		return err
	}
	bytes := uint64(wire.ValueSizeHint(v))
	if err := p.gate.acquire(ctx, bytes); err != nil {
		return err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return fmt.Errorf("%w: flow %q: producer closed", channel.ErrStreamClosed, p.fs.Flow())
	}
	// Holding the read lock across the channel send keeps Close from
	// closing the pump under us; the pump goroutine drains independently,
	// so a full buffer clears without Close's write lock.
	select {
	case p.pump <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close ends the stream: buffered elements drain, the end-of-stream
// marker is sent, and the pump exits. Safe to call concurrently with
// Send; later Sends fail with ErrStreamClosed.
func (p *Producer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return p.stickyErr()
	}
	p.closed = true
	close(p.pump)
	p.mu.Unlock()
	<-p.done
	return p.stickyErr()
}

// Stats snapshots the producer's counters.
func (p *Producer) Stats() ProducerStats {
	stalls, stallNs := p.gate.stallStats()
	ce, cb := p.gate.remaining()
	return ProducerStats{
		Sent:        p.sent.Load(),
		Batches:     p.batches.Load(),
		Stalls:      stalls,
		StallNs:     stallNs,
		MaxBuffered: p.maxBuf.Load(),
		CreditElems: ce,
		CreditBytes: cb,
	}
}

func (p *Producer) stickyErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

func (p *Producer) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
	p.gate.fail(err)
}

// run is the pump: the single goroutine that owns the wire end, so
// elements from concurrent Senders serialise into per-flow FIFO order. It
// batches adaptively — everything already buffered (up to maxBatch) goes
// out in one frame — and after a wire failure it keeps draining so no
// Sender stays blocked on a full buffer.
func (p *Producer) run() {
	defer close(p.done)
	scratch := make([]values.Value, 0, maxBatch)
	open := true
	for open {
		v, ok := <-p.pump
		if !ok {
			break
		}
		batch := append(scratch[:0], v)
	fill:
		for len(batch) < maxBatch {
			select {
			case v2, ok2 := <-p.pump:
				if !ok2 {
					open = false
					break fill
				}
				batch = append(batch, v2)
			default:
				break fill
			}
		}
		if buffered := uint64(len(batch) + len(p.pump)); buffered > p.maxBuf.Load() {
			p.maxBuf.Store(buffered)
		}
		if p.stickyErr() != nil {
			continue // draining a dead stream: discard
		}
		if err := p.fs.SendBatch(batch); err != nil {
			p.fail(err)
			continue
		}
		p.sent.Add(uint64(len(batch)))
		p.batches.Add(1)
	}
	if err := p.fs.Close(); err != nil && p.stickyErr() == nil {
		// EOS did not go out: the consumer learns from conn teardown.
		p.fail(err)
	}
}
