package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/types"
	"repro/internal/values"
)

// FlowSender is the producer end of a stream binding to one consumer;
// *channel.Binding satisfies it.
type FlowSender interface {
	Flow(ctx context.Context, flow string, elem values.Value) error
	Close() error
}

// BinderFunc creates the channel to a consumer's stream interface. The
// deployment layer supplies one that uses the node's transport, locator
// and contract-derived stages.
type BinderFunc func(ref naming.InterfaceRef) (FlowSender, error)

// StreamBindingControlType is the control interface of a stream binding
// object: consumers are attached and detached at run time, which is what
// makes the binding a first-class "binding object" rather than a primitive
// binding.
func StreamBindingControlType() *types.Interface {
	return types.OpInterface("StreamBindingControl",
		types.Op("AddSink",
			types.Params(types.P("sink", naming.RefDataType())),
			types.Term("OK", types.P("sinks", values.TInt())),
			types.Term("Error", types.P("reason", values.TString())),
		),
		types.Op("RemoveSink",
			types.Params(types.P("sink", naming.RefDataType())),
			types.Term("OK", types.P("sinks", values.TInt())),
			types.Term("NotFound"),
		),
		types.Op("SinkCount", nil,
			types.Term("OK", types.P("sinks", values.TInt())),
		),
	)
}

// streamBinding is the binding-object behaviour: every flow element it
// receives on its stream interface is forwarded to every attached sink.
type streamBinding struct {
	bind BinderFunc

	mu    sync.Mutex
	sinks map[naming.InterfaceID]sinkEntry
}

type sinkEntry struct {
	ref    naming.InterfaceRef
	sender FlowSender
}

var _ engineering.Behavior = (*streamBinding)(nil)

// RegisterStreamBinding installs the stream-binding behaviour in a
// behaviour registry under the given name. Objects created from it should
// offer StreamBindingControlType (for control) plus the stream interface
// type being bound (to receive the producer's flows).
func RegisterStreamBinding(reg *engineering.BehaviorRegistry, name string, bind BinderFunc) {
	reg.Register(name, func(values.Value) (engineering.Behavior, error) {
		return &streamBinding{bind: bind, sinks: make(map[naming.InterfaceID]sinkEntry)}, nil
	})
}

// Invoke implements the control interface.
func (s *streamBinding) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	switch op {
	case "AddSink":
		ref, err := naming.RefFromValue(args[0])
		if err != nil {
			return "Error", []values.Value{values.Str(err.Error())}, nil
		}
		sender, err := s.bind(ref)
		if err != nil {
			return "Error", []values.Value{values.Str(err.Error())}, nil
		}
		s.mu.Lock()
		if _, dup := s.sinks[ref.ID]; dup {
			s.mu.Unlock()
			_ = sender.Close()
			return "Error", []values.Value{values.Str("sink already attached")}, nil
		}
		s.sinks[ref.ID] = sinkEntry{ref: ref, sender: sender}
		n := len(s.sinks)
		s.mu.Unlock()
		return "OK", []values.Value{values.Int(int64(n))}, nil
	case "RemoveSink":
		ref, err := naming.RefFromValue(args[0])
		if err != nil {
			return "NotFound", nil, nil
		}
		s.mu.Lock()
		entry, ok := s.sinks[ref.ID]
		if ok {
			delete(s.sinks, ref.ID)
		}
		n := len(s.sinks)
		s.mu.Unlock()
		if !ok {
			return "NotFound", nil, nil
		}
		_ = entry.sender.Close()
		return "OK", []values.Value{values.Int(int64(n))}, nil
	case "SinkCount":
		s.mu.Lock()
		n := len(s.sinks)
		s.mu.Unlock()
		return "OK", []values.Value{values.Int(int64(n))}, nil
	}
	return "", nil, fmt.Errorf("core: stream binding has no operation %q", op)
}

// Flow fans the element out to every sink. Delivery is best-effort per
// sink (a dead consumer does not block the others); failed sinks stay
// attached so that transient failures heal via the sender's own retry and
// relocation machinery.
func (s *streamBinding) Flow(flow string, elem values.Value) {
	s.mu.Lock()
	senders := make([]FlowSender, 0, len(s.sinks))
	for _, e := range s.sinks {
		senders = append(senders, e.sender)
	}
	s.mu.Unlock()
	ctx := context.Background()
	for _, snd := range senders {
		_ = snd.Flow(ctx, flow, elem)
	}
}

// CheckpointState captures the attached sink references, so a migrated
// binding object reattaches to its consumers.
func (s *streamBinding) CheckpointState() (values.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs := make([]values.Value, 0, len(s.sinks))
	for _, e := range s.sinks {
		refs = append(refs, e.ref.ToValue())
	}
	return values.Seq(refs...), nil
}

// RestoreState re-binds to the checkpointed sinks.
func (s *streamBinding) RestoreState(state values.Value) error {
	if state.Kind() != values.KindSeq {
		return fmt.Errorf("core: stream binding state must be a seq, got %v", state.Kind())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < state.Len(); i++ {
		ref, err := naming.RefFromValue(state.ElemAt(i))
		if err != nil {
			return fmt.Errorf("core: restoring sink %d: %w", i, err)
		}
		sender, err := s.bind(ref)
		if err != nil {
			return fmt.Errorf("core: rebinding sink %s: %w", ref.ID, err)
		}
		s.sinks[ref.ID] = sinkEntry{ref: ref, sender: sender}
	}
	return nil
}
