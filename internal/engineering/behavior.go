package engineering

import (
	"fmt"
	"sync"

	"repro/internal/channel"
	"repro/internal/values"
)

// Behavior is the application code of a basic engineering object — the
// "data and processing" the computational viewpoint says an object
// encapsulates. A Behavior handles operation invocations; it may
// additionally implement channel.FlowReceiver for stream interfaces, and
// Checkpointable to participate in the checkpoint, deactivation, migration
// and recovery functions.
type Behavior interface {
	channel.Handler
}

// Checkpointable is implemented by behaviours whose state can be captured
// and restored. The state travels as a value, so checkpoints can cross
// channels (that is how migration ships a cluster between nodes).
type Checkpointable interface {
	CheckpointState() (values.Value, error)
	RestoreState(state values.Value) error
}

// BehaviorFactory creates a fresh behaviour instance. The arg value is
// supplied at object creation (and recorded in checkpoints so migration
// can re-create the object).
type BehaviorFactory func(arg values.Value) (Behavior, error)

// BehaviorRegistry maps behaviour names to factories. Checkpoints record
// behaviour names, not code, so a destination node can re-instantiate a
// migrated cluster only if its registry knows the same names — the
// engineering-viewpoint equivalent of "the code must already be installed".
type BehaviorRegistry struct {
	mu        sync.RWMutex
	factories map[string]BehaviorFactory
}

// NewBehaviorRegistry returns an empty registry.
func NewBehaviorRegistry() *BehaviorRegistry {
	return &BehaviorRegistry{factories: make(map[string]BehaviorFactory)}
}

// Register installs a factory under name, replacing any previous one.
func (r *BehaviorRegistry) Register(name string, f BehaviorFactory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[name] = f
}

// New instantiates the named behaviour.
func (r *BehaviorRegistry) New(name string, arg values.Value) (Behavior, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchBehavior, name)
	}
	b, err := f(arg)
	if err != nil {
		return nil, fmt.Errorf("engineering: instantiating %q: %w", name, err)
	}
	return b, nil
}

// revive re-creates an object's behaviour from its checkpoint, for
// reactivation and instantiation alike.
func (r *BehaviorRegistry) revive(oc ObjectCheckpoint) (Behavior, error) {
	b, err := r.New(oc.Behavior, oc.Arg)
	if err != nil {
		return nil, err
	}
	if oc.HasState {
		cb, ok := b.(Checkpointable)
		if !ok {
			return nil, fmt.Errorf("%w: behaviour %q", ErrNotCheckpointable, oc.Behavior)
		}
		if err := cb.RestoreState(oc.State); err != nil {
			return nil, fmt.Errorf("engineering: restoring object %d: %w", oc.Seq, err)
		}
	}
	return b, nil
}

// Known reports whether name is registered.
func (r *BehaviorRegistry) Known(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.factories[name]
	return ok
}
