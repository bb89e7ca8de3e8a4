// Package stream is the streaming data plane of the computational model
// (tutorial §5.1.1, Figure 3): producer/consumer endpoints for stream
// interfaces, built over the engineering channel's session layer with
// credit-based flow control.
//
// The shape follows the netchan idiom the roadmap names: the consumer end
// grants transmission credit — denominated in both elements and bytes —
// and the producer blocks (or fails fast) when its window is exhausted.
// Credit rides the wire as a bare-header CreditGrant frame carrying
// cumulative totals, so a lost or reordered grant is subsumed by the next
// one; elements ride FlowBatch frames through the session's batched send
// queue, so stream traffic coalesces into the same vectored writes as
// request/reply traffic. The result is per-stream backpressure: one slow
// consumer among hundreds of multiplexed bindings stalls only its own
// producer, whose memory stays bounded by the credit window rather than
// growing with the backlog.
package stream

import (
	"context"
	"sync"
	"time"
)

// The package's bounds: beside the consumer's Window, a stream's memory ceiling.
const (
	// maxBatch bounds elements per FlowBatch frame: the pump sends whatever
	// is buffered, so batches grow toward it only behind a slow wire.
	maxBatch = 64
	// sendBuffer is the hand-off queue between Send and the pump, in
	// elements: four batches, so the pump is fed while one is on the wire.
	sendBuffer = 256
	// windowBytes is the credit window in bytes (wire.ValueSizeHint at both
	// ends): 1 MiB, the session send queue's own bound.
	windowBytes uint64 = 1 << 20
)

// creditGate is the producer-side credit window: cumulative grants arrive
// from the consumer (via the session read loop) and Send debits against
// them, blocking when the window is empty. All totals are cumulative
// since stream open, matching the wire protocol, so the gate never needs
// to reason about lost or reordered grants. The zero gate is a window
// that nothing has been granted yet.
type creditGate struct {
	mu sync.Mutex
	// notify is made by the first Send that parks and closed, and
	// dropped, by the grant or failure that wakes it: a grant with no
	// Send waiting makes no channel.
	notify chan struct{}

	grantedElems uint64
	grantedBytes uint64
	usedElems    uint64
	usedBytes    uint64

	err error // sticky: stream dead, no grant will ever arrive

	stalls  uint64
	stallNs uint64
}

// grant folds in a cumulative grant. Regressions are ignored (stale
// grant arriving after a newer one).
func (g *creditGate) grant(cumElems, cumBytes uint64) {
	g.mu.Lock()
	moved := false
	if cumElems > g.grantedElems {
		g.grantedElems = cumElems
		moved = true
	}
	if cumBytes > g.grantedBytes {
		g.grantedBytes = cumBytes
		moved = true
	}
	if moved {
		g.wake()
	}
	g.mu.Unlock()
}

// fail makes the gate permanently broken and wakes every waiter.
func (g *creditGate) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
		g.wake()
	}
	g.mu.Unlock()
}

// wake releases every parked Send, if any. The caller holds g.mu.
func (g *creditGate) wake() {
	if g.notify != nil {
		close(g.notify)
		g.notify = nil
	}
}

// acquire debits credit for one element of the given size, blocking until
// the window admits it. The time spent stalled goes to the producer's
// stats.
func (g *creditGate) acquire(ctx context.Context, bytes uint64) error {
	var stallStart time.Time
	for {
		g.mu.Lock()
		if g.err != nil {
			err := g.err
			g.mu.Unlock()
			return err
		}
		// Byte credit may overshoot by at most one element: an element is
		// admitted whenever any byte credit remains, then debited in full.
		// Without the overshoot an element larger than the remaining byte
		// window could never be admitted and the stream would deadlock;
		// with it the producer's overrun is bounded by one element, which
		// the consumer's accounting absorbs (its grants are cumulative).
		if g.usedElems < g.grantedElems && g.usedBytes < g.grantedBytes {
			g.usedElems++
			g.usedBytes += bytes
			if !stallStart.IsZero() {
				g.stallNs += uint64(time.Since(stallStart))
			}
			g.mu.Unlock()
			return nil
		}
		if g.notify == nil {
			g.notify = make(chan struct{})
		}
		ch := g.notify
		if stallStart.IsZero() {
			g.stalls++
			stallStart = time.Now()
		}
		g.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			stalled := uint64(time.Since(stallStart))
			g.mu.Lock()
			g.stallNs += stalled
			g.mu.Unlock()
			return ctx.Err()
		}
	}
}

// remaining reports the window still open, in elements and bytes.
func (g *creditGate) remaining() (elems, bytes int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.grantedElems > g.usedElems {
		elems = int64(g.grantedElems - g.usedElems)
	}
	if g.grantedBytes > g.usedBytes {
		bytes = int64(g.grantedBytes - g.usedBytes)
	}
	return elems, bytes
}

func (g *creditGate) stallStats() (stalls, stallNs uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stalls, g.stallNs
}
