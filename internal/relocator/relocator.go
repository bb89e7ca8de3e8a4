// Package relocator implements the ODP relocator function
// (Section 8.3.3 of the tutorial): "a repository of interface locations
// (a white pages service)".
//
// Binders register the location of the interfaces they support and consult
// the relocator when a cached location turns out to be stale; that is the
// mechanism behind location and relocation transparency (Section 9.2).
// Every relocation bumps the interface's epoch, so a binder can tell a
// fresh answer from the stale hint it already has.
//
// A Relocator is safe for concurrent use.
package relocator

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/naming"
)

// Relocator error sentinels.
var (
	ErrUnknown = errors.New("relocator: unknown interface")
	ErrStale   = errors.New("relocator: registration is older than current epoch")
)

// StaleError is the structured form of ErrStale: it carries the epoch the
// relocator currently holds for the interface alongside the refused one,
// so a caller that hits errors.Is(err, ErrStale) can also recover the
// current epoch from the chain (errors.As) instead of re-looking it up.
type StaleError struct {
	ID      naming.InterfaceID
	Current uint64 // epoch the relocator holds
	Refused uint64 // epoch the rejected registration carried
}

func (e *StaleError) Error() string {
	return fmt.Sprintf("%v: %s has epoch %d, refusing epoch %d", ErrStale, e.ID, e.Current, e.Refused)
}

// Unwrap makes errors.Is(err, ErrStale) hold.
func (e *StaleError) Unwrap() error { return ErrStale }

// Event describes one change to the location database.
type Event struct {
	Ref     naming.InterfaceRef
	Removed bool
}

// Relocator is the white-pages repository of interface locations.
type Relocator struct {
	mu      sync.RWMutex
	entries map[naming.InterfaceID]naming.InterfaceRef
	nextSub int
	subs    map[int]func(Event)

	lookups   atomic.Uint64
	misses    atomic.Uint64
	relocates atomic.Uint64
}

// New returns an empty relocator.
func New() *Relocator {
	return &Relocator{
		entries: make(map[naming.InterfaceID]naming.InterfaceRef),
		subs:    make(map[int]func(Event)),
	}
}

// Register records the location of an interface. A later registration for
// the same interface must carry an epoch at least as new as the stored
// one, otherwise ErrStale is returned — this stops a delayed registration
// from a previous home overwriting the interface's current location.
func (r *Relocator) Register(ref naming.InterfaceRef) error {
	if ref.IsZero() {
		return fmt.Errorf("%w: zero reference", ErrUnknown)
	}
	r.mu.Lock()
	if cur, ok := r.entries[ref.ID]; ok && ref.Epoch < cur.Epoch {
		r.mu.Unlock()
		return &StaleError{ID: ref.ID, Current: cur.Epoch, Refused: ref.Epoch}
	}
	r.entries[ref.ID] = ref
	subs := r.snapshot()
	r.mu.Unlock()
	notify(subs, Event{Ref: ref})
	return nil
}

// Lookup returns the current location of the interface.
func (r *Relocator) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	// Atomic counters let lookups share the read lock: before, every
	// Lookup took the write lock just to bump the counters, serialising
	// the hottest read path of the white pages.
	r.lookups.Add(1)
	r.mu.RLock()
	ref, ok := r.entries[id]
	r.mu.RUnlock()
	if !ok {
		r.misses.Add(1)
		return naming.InterfaceRef{}, fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	return ref, nil
}

// Move relocates an interface to a new endpoint, bumping its epoch, and
// returns the updated reference. This is what a migrating capsule manager
// calls for each interface of a moved cluster.
func (r *Relocator) Move(id naming.InterfaceID, to naming.Endpoint) (naming.InterfaceRef, error) {
	r.mu.Lock()
	ref, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return naming.InterfaceRef{}, fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	ref.Endpoint = to
	ref.Epoch++
	r.entries[id] = ref
	r.relocates.Add(1)
	subs := r.snapshot()
	r.mu.Unlock()
	notify(subs, Event{Ref: ref})
	return ref, nil
}

// Remove deletes an interface's registration (e.g. on object deletion).
// Removing an unknown interface is a no-op.
func (r *Relocator) Remove(id naming.InterfaceID) {
	r.mu.Lock()
	ref, ok := r.entries[id]
	if ok {
		delete(r.entries, id)
	}
	subs := r.snapshot()
	r.mu.Unlock()
	if ok {
		notify(subs, Event{Ref: ref, Removed: true})
	}
}

// Subscribe registers a callback invoked (synchronously, without internal
// locks held) for every registration, move and removal. The returned
// function cancels the subscription.
func (r *Relocator) Subscribe(fn func(Event)) (cancel func()) {
	r.mu.Lock()
	id := r.nextSub
	r.nextSub++
	r.subs[id] = fn
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.subs, id)
		r.mu.Unlock()
	}
}

// Entries returns a snapshot of all registrations, sorted by interface id.
func (r *Relocator) Entries() []naming.InterfaceRef {
	r.mu.RLock()
	out := make([]naming.InterfaceRef, 0, len(r.entries))
	for _, ref := range r.entries {
		out = append(out, ref)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID.String() < out[j].ID.String() })
	return out
}

// Stats counts a Relocator's traffic since it was created.
type Stats struct {
	Lookups   uint64
	Misses    uint64 // lookups of an unregistered interface
	Relocates uint64 // moves
}

// Stats reports cumulative lookup, miss and relocation counts.
func (r *Relocator) Stats() Stats {
	return Stats{Lookups: r.lookups.Load(), Misses: r.misses.Load(), Relocates: r.relocates.Load()}
}

func (r *Relocator) snapshot() []func(Event) {
	out := make([]func(Event), 0, len(r.subs))
	for _, fn := range r.subs {
		out = append(out, fn)
	}
	return out
}

func notify(subs []func(Event), ev Event) {
	for _, fn := range subs {
		fn(ev)
	}
}
