// Package typerepo implements the ODP Type Repository function
// (Section 8.3.1 of the tutorial).
//
// "ODP systems must make type information available through the ODP system
// itself; the primary need is to support type checking during trading and
// interface binding." The repository registers named interface types and
// answers the subtype checks trading and binding make, structurally and
// with memoisation.
//
// A Repository is safe for concurrent use.
package typerepo

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Repository error sentinels.
var (
	ErrNotFound = errors.New("typerepo: type not found")
	ErrConflict = errors.New("typerepo: conflicting registration")
	ErrBadDecl  = errors.New("typerepo: declared subtype relation is structurally unsound")
	ErrBadType  = errors.New("typerepo: invalid type")
)

// Repository is the type-repository service surface: registration and
// lookup of interface types and the subtype check. Two implementations
// exist: *Local, the in-process authority store, and *Replicated, a
// read-mostly front-end serving gen-fenced reads from local replicas.
// Call sites hold the interface so a singleton can be swapped for a
// replicated fleet without changing semantics.
type Repository interface {
	RegisterInterface(it *types.Interface) error
	LookupInterface(name string) (*types.Interface, error)
	Interfaces() ([]string, error)
	DeclareSubtype(sub, super string) error
	IsSubtype(sub, super string) (bool, error)
	Gen() uint64
}

// Local is the concrete single-store registry for interface types. It is
// the authority behind every Replicated front-end.
type Local struct {
	mu         sync.RWMutex
	interfaces map[string]*types.Interface
	subCache   map[subKey]bool // memoised structural results
	gen        atomic.Uint64   // bumped whenever a registration lands
}

type subKey struct{ sub, super string }

// New returns an empty repository.
func New() *Local {
	return &Local{
		interfaces: make(map[string]*types.Interface),
		subCache:   make(map[subKey]bool),
	}
}

// RegisterInterface validates and registers an interface type under its
// own name. Re-registering an identical (mutually substitutable) type is
// idempotent; registering a different type under an existing name fails
// with ErrConflict.
func (r *Local) RegisterInterface(it *types.Interface) error {
	if err := checkInterface(it); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.interfaces[it.Name]; ok {
		if types.Equal(existing, it) {
			return nil
		}
		return fmt.Errorf("%w: interface %q already registered with a different shape", ErrConflict, it.Name)
	}
	r.interfaces[it.Name] = it
	// Structural facts may change as the universe of types grows; reset
	// the memo rather than reasoning about which entries survive, and
	// advance the generation so external caches (the trader's subtype
	// closure) know theirs went stale too.
	r.subCache = make(map[subKey]bool)
	r.gen.Add(1)
	return nil
}

// checkInterface is the one admission rule for an interface type: the
// store applies it, and a proxy applies it before the type travels.
func checkInterface(it *types.Interface) error {
	if it == nil {
		return fmt.Errorf("%w: nil interface", ErrBadType)
	}
	if err := it.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadType, err)
	}
	return nil
}

// Gen returns the repository's type-fact generation: it advances whenever
// a registration may have changed what readers observe. Callers
// memoising derived facts (the trader's per-service-type subtype closure,
// a Replicated front-end's per-replica copies) compare generations to
// know when to rebuild. The bump happens while the write lock is still
// held, so a reader that observes generation g and then snapshots the
// store sees every fact registered up to g.
func (r *Local) Gen() uint64 { return r.gen.Load() }

// LookupInterface returns the interface type registered under name.
func (r *Local) LookupInterface(name string) (*types.Interface, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	it, ok := r.interfaces[name]
	if !ok {
		return nil, fmt.Errorf("%w: interface %q", ErrNotFound, name)
	}
	return it, nil
}

// Interfaces returns the sorted names of all registered interface types.
// A local store always answers; the error is a remote store's.
func (r *Local) Interfaces() ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.interfaces))
	for n := range r.interfaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// DeclareSubtype checks the claim that sub is a subtype of super: both
// types must be registered, and the claim must hold structurally. It
// stores nothing, since IsSubtype answers from the structure alone, so a
// sound declaration changes no answer and advances no generation.
func (r *Local) DeclareSubtype(sub, super string) error {
	r.mu.RLock()
	subT, superT, err := r.pair(sub, super)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := types.Subtype(subT, superT); err != nil {
		return fmt.Errorf("%w: %v", ErrBadDecl, err)
	}
	return nil
}

// IsSubtype reports whether the registered type sub may substitute for the
// registered type super. Structural results are memoised, so repeated
// checks (as a trader makes during matching) are map lookups.
func (r *Local) IsSubtype(sub, super string) (bool, error) {
	if sub == super {
		// Still require the type to exist.
		if _, err := r.LookupInterface(sub); err != nil {
			return false, err
		}
		return true, nil
	}
	r.mu.RLock()
	if res, ok := r.subCache[subKey{sub, super}]; ok {
		r.mu.RUnlock()
		return res, nil
	}
	subT, superT, err := r.pair(sub, super)
	r.mu.RUnlock()
	if err != nil {
		return false, err
	}
	res := types.IsSubtype(subT, superT)
	r.mu.Lock()
	r.subCache[subKey{sub, super}] = res
	r.mu.Unlock()
	return res, nil
}

// pair looks up both ends of a subtype question; r.mu is held.
func (r *Local) pair(sub, super string) (*types.Interface, *types.Interface, error) {
	subT, ok := r.interfaces[sub]
	if !ok {
		return nil, nil, fmt.Errorf("%w: interface %q", ErrNotFound, sub)
	}
	superT, ok := r.interfaces[super]
	if !ok {
		return nil, nil, fmt.Errorf("%w: interface %q", ErrNotFound, super)
	}
	return subT, superT, nil
}
