package channel

import (
	"sync"

	"repro/internal/types"
	"repro/internal/wire"
)

// The tutorial (Section 5.1) layers the interaction forms: "underlying
// both operational interfaces and stream interfaces are signal interfaces
// which provide very low-level communications actions. The OSI service
// primitives (REQUEST, INDICATE, RESPONSE, and CONFIRM) are examples of
// signals." This file makes that refinement observable: SignalTraceStage
// maps every channel message to the OSI primitive it realises at this
// channel end, so an interrogation traces as the canonical four-primitive
// exchange:
//
//	client: Greet REQUEST        server: Greet INDICATE
//	server: Greet RESPONSE       client: Greet CONFIRM
//
// Announcements, flows and raw signals trace as REQUEST/INDICATE only.

// SignalEvent is one primitive observed at a channel end.
type SignalEvent struct {
	Operation string
	Primitive types.SignalPrimitive
}

// SignalTraceStage records the OSI-primitive view of the channel's
// traffic. Install it at either end (or both); each end sees its own half
// of the four-primitive exchange.
type SignalTraceStage struct {
	Sink func(SignalEvent)
}

var _ Stage = (*SignalTraceStage)(nil)

// Process maps the message to its primitive and passes it through.
func (s *SignalTraceStage) Process(dir Direction, m *wire.Message) error {
	if s.Sink == nil {
		return nil
	}
	var prim types.SignalPrimitive
	switch m.Kind {
	case wire.Call, wire.OneWay, wire.FlowMsg, wire.SignalMsg, wire.Probe, wire.FlowBatch:
		if dir == Outbound {
			prim = types.Request
		} else {
			prim = types.Indicate
		}
	case wire.Reply, wire.ErrReply, wire.ProbeAck, wire.CreditGrant:
		if dir == Outbound {
			prim = types.Response
		} else {
			prim = types.Confirm
		}
	default:
		return nil
	}
	s.Sink(SignalEvent{Operation: m.Operation, Primitive: prim})
	return nil
}

// SignalTrace is a concurrency-safe Sink that retains events.
type SignalTrace struct {
	mu     sync.Mutex
	events []SignalEvent
}

// Record appends an event; pass it as the stage's Sink.
func (t *SignalTrace) Record(e SignalEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, e)
}

// Events returns a copy of the recorded events.
func (t *SignalTrace) Events() []SignalEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SignalEvent, len(t.events))
	copy(out, t.events)
	return out
}
