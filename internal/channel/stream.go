package channel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

// This file is the channel-level half of the streaming data plane: the
// wire endpoints that ride the session layer. A FlowStream is the client
// (producer) end of one flow stream — it sends element batches through the
// session's batched send queue and receives credit grants demultiplexed by
// the session read loop — and StreamReceiver is the contract a servant
// implements to absorb credit-managed batches at the server end. The
// credit *policy* (window sizes, when to grant, blocking vs fail-fast)
// lives one layer up in package stream; this layer only moves frames and
// routes grants.

// StreamPhase classifies one StreamBatch delivery.
type StreamPhase uint8

// The phases of a stream's life as seen by a StreamReceiver.
const (
	// StreamOpen is the producer's subscription: no elements yet. The
	// receiver answers with the initial credit grant — until then the
	// producer holds zero credit and cannot send.
	StreamOpen StreamPhase = iota + 1
	// StreamElems carries a batch of elements.
	StreamElems
	// StreamClose ends the stream: Err nil for an orderly end-of-stream
	// from the producer, non-nil (ErrDisconnected) when the carrying
	// connection died with the stream open.
	StreamClose
)

// StreamBatch is one delivery from a server connection's read loop to a
// stream servant. Deliveries for one stream arrive in wire order on the
// connection's read-loop goroutine, so per-flow FIFO is preserved by
// construction; the receiver must not block (a bounded receiver queue is
// exactly what the credit window guarantees it can afford).
type StreamBatch struct {
	Phase   StreamPhase
	Binding uint64 // producer's binding id
	Stream  uint64 // stream id (the producer's correlation space)
	Flow    string
	Seq     uint64         // cumulative elements before this batch (FIFO position)
	Elems   []values.Value // type-checked survivors; borrowed until StreamBatch returns, values may be kept

	// DroppedElems/DroppedBytes count mistyped elements the server stub
	// removed from this batch. They were sent — the producer debited
	// credit for them — so the receiver must still credit them back, or
	// the window shrinks by every drop.
	DroppedElems uint64
	DroppedBytes uint64

	// Err is the abnormal-close cause (StreamClose only).
	Err error

	// Grant sends a credit grant back to the producer on the delivering
	// connection: cumulative element and byte totals since stream open.
	// Safe to call from any goroutine until the conn dies (then it is a
	// no-op); nil on StreamClose.
	Grant func(cumElems, cumBytes uint64)
}

// StreamReceiver is implemented by servants that accept credit-managed
// flow streams (package stream's Consumer is the standard one). Servants
// that only implement FlowReceiver still get legacy single-element
// FlowMsg deliveries; FlowBatch frames require this interface.
type StreamReceiver interface {
	StreamBatch(b StreamBatch)
}

// FlowStream is the client-side wire endpoint of one flow stream, opened
// with Binding.OpenFlowStream. It is pinned to the session that carried
// its open frame: streams do not survive session failover (elements in
// flight would be lost silently), so a session death closes the stream
// and the producer reopens if it wants to continue. Not safe for
// concurrent use — one sender goroutine per stream is the per-flow FIFO
// discipline (package stream's Producer enforces it with its pump).
type FlowStream struct {
	b         *Binding
	sess      *Session
	flow      string
	streamID  uint64
	elemType  *values.DataType // non-nil when the binding's type declares the flow
	sentElems uint64           // cumulative elements handed to the session
	closed    atomic.Bool
}

// OpenFlowStream opens a credit-managed stream on the named flow. The
// onGrant callback receives every credit grant (cumulative element and
// byte totals since open) and onDead fires exactly once if the carrying
// session dies with the stream open; both run on the session's read-loop
// goroutine and must not block. Causality is checked at open when the
// binding has a type: flow directions are relative to the interface's
// owner (this binding), so only a Producer flow can be streamed out.
func (b *Binding) OpenFlowStream(ctx context.Context, flow string, onGrant func(cumElems, cumBytes uint64), onDead func(err error)) (*FlowStream, error) {
	var elemType *values.DataType
	if t := b.cfg.Type; t != nil {
		f, ok := t.Flow(flow)
		if !ok {
			return nil, fmt.Errorf("%w: interface %s has no flow %q", ErrTypeCheck, t.Name, flow)
		}
		if f.Direction != types.Producer {
			return nil, fmt.Errorf("%w: flow %s.%s is a %v flow in this binding's view; only a producer flow can be streamed out",
				ErrTypeCheck, t.Name, flow, f.Direction)
		}
		elemType = f.Elem
	}
	sess, err := b.session(ctx)
	if err != nil {
		return nil, err
	}
	fs := &FlowStream{
		b:        b,
		sess:     sess,
		flow:     flow,
		streamID: b.nextCorrel.Add(1),
		elemType: elemType,
	}
	if err := sess.registerGrants(b.bindingID, fs.streamID, &grantSink{onGrant: onGrant, onDead: onDead}); err != nil {
		return nil, err
	}
	if err := fs.sendMarker(wire.StreamOpenMark); err != nil {
		sess.unregisterGrants(b.bindingID, fs.streamID)
		return nil, err
	}
	return fs, nil
}

// Flow returns the stream's flow name.
func (fs *FlowStream) Flow() string { return fs.flow }

// SendBatch sends one batch of elements, riding the session's batched
// send queue (enqueue then flush: group commit, so a write error is
// observed here, not swallowed). Elements are type-checked against the
// flow's declared element type when the binding is typed. The caller is
// responsible for holding transmission credit for every element — the
// wire itself does not block; the credit gate above does.
func (fs *FlowStream) SendBatch(elems []values.Value) error {
	if fs.closed.Load() {
		return fmt.Errorf("%w: flow %q", ErrStreamClosed, fs.flow)
	}
	if fs.elemType != nil {
		for i := range elems {
			if err := fs.elemType.Check(elems[i]); err != nil {
				return fmt.Errorf("%w: flow %q element %d: %v", ErrTypeCheck, fs.flow, i, err)
			}
		}
	}
	if err := fs.sendFrame(elems, ""); err != nil {
		return err
	}
	fs.sentElems += uint64(len(elems))
	return nil
}

// Close ends the stream: an end-of-stream marker is sent (best effort —
// on a dead session the consumer learns of the close from the connection
// teardown instead) and the grant slot is released. Idempotent.
func (fs *FlowStream) Close() error {
	if !fs.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := fs.sendMarker(wire.StreamEOSMark)
	fs.sess.unregisterGrants(fs.b.bindingID, fs.streamID)
	return err
}

func (fs *FlowStream) sendMarker(mark string) error {
	return fs.sendFrame(nil, mark)
}

// sendFrame builds, encodes and group-commits one FlowBatch frame on the
// pinned session. Session-layer failures (ErrSessionClosing, the queue's
// sticky write error) are wrapped in ErrStreamClosed: the stream is dead
// either way, and the chain keeps ErrDisconnected visible for retry
// classification.
func (fs *FlowStream) sendFrame(elems []values.Value, mark string) error {
	b := fs.b
	m := b.message(wire.FlowBatch, b.Ref(), fs.sentElems, fs.streamID, fs.flow, elems)
	m.Termination = mark
	err := b.post(fs.sess, m)
	wire.PutMessage(m)
	if errors.Is(err, ErrDisconnected) {
		return fmt.Errorf("%w: flow %q: %w", ErrStreamClosed, fs.flow, err)
	}
	return err
}
