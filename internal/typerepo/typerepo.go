// Package typerepo implements the ODP Type Repository function
// (Section 8.3.1 of the tutorial).
//
// "ODP systems must make type information available through the ODP system
// itself; the primary need is to support type checking during trading and
// interface binding." The repository registers named interface types and
// data types, maintains the subtype hierarchy (both declared and
// structurally discovered, with memoisation), and keeps arbitrary named
// relationships between types — the general "relationship repository" the
// tutorial mentions alongside it.
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
	"repro/internal/values"
)

// Repository error sentinels.
var (
	ErrNotFound  = errors.New("typerepo: type not found")
	ErrConflict  = errors.New("typerepo: conflicting registration")
	ErrBadDecl   = errors.New("typerepo: declared subtype relation is structurally unsound")
	ErrBadName   = errors.New("typerepo: empty type name")
	ErrBadType   = errors.New("typerepo: invalid type")
	ErrBadRelate = errors.New("typerepo: relationship endpoints must be registered")
)

// Repository is the type-repository service surface: registration of
// interface and data types, the subtype hierarchy (declared and
// structural), and named relationships between types. Two implementations
// exist: *Local, the in-process authority store, and *Replicated, a
// read-mostly front-end serving gen-fenced reads from local replicas.
// Call sites hold the interface so a singleton can be swapped for a
// replicated fleet without changing semantics.
type Repository interface {
	RegisterInterface(it *types.Interface) error
	LookupInterface(name string) (*types.Interface, error)
	Interfaces() []string
	RegisterData(name string, dt *values.DataType) error
	LookupData(name string) (*values.DataType, error)
	DeclareSubtype(sub, super string) error
	IsSubtype(sub, super string) (bool, error)
	Supertypes(name string) ([]string, error)
	Subtypes(name string) ([]string, error)
	DeclaredSupertypes(name string) []string
	Relate(relation, from, to string) error
	Related(relation, from string) []string
	Gen() uint64
}

// Local is the concrete single-store registry for interface types, data
// types and the relationships between them. It is the authority behind
// every Replicated front-end.
type Local struct {
	mu         sync.RWMutex
	interfaces map[string]*types.Interface
	data       map[string]*values.DataType
	declared   map[string]map[string]bool // sub -> set of declared supers
	subCache   map[subKey]bool            // memoised structural results
	relations  map[string]map[string]map[string]bool
	gen        atomic.Uint64 // bumped whenever registered facts change
}

type subKey struct{ sub, super string }

// New returns an empty repository.
func New() *Local {
	return &Local{
		interfaces: make(map[string]*types.Interface),
		data:       make(map[string]*values.DataType),
		declared:   make(map[string]map[string]bool),
		subCache:   make(map[subKey]bool),
		relations:  make(map[string]map[string]map[string]bool),
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
// a successful mutation may have changed what readers observe (interface
// and data registrations, declared subtype edges, relationships). Callers
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
func (r *Local) Interfaces() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.interfaces))
	for n := range r.interfaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterData registers a named data type. The same idempotence and
// conflict rules as RegisterInterface apply.
func (r *Local) RegisterData(name string, dt *values.DataType) error {
	if name == "" {
		return ErrBadName
	}
	if dt == nil {
		return fmt.Errorf("%w: nil data type", ErrBadType)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.data[name]; ok {
		if existing.Equal(dt) {
			return nil
		}
		return fmt.Errorf("%w: data type %q already registered with a different shape", ErrConflict, name)
	}
	r.data[name] = dt
	r.gen.Add(1)
	return nil
}

// LookupData returns the data type registered under name.
func (r *Local) LookupData(name string) (*values.DataType, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dt, ok := r.data[name]
	if !ok {
		return nil, fmt.Errorf("%w: data type %q", ErrNotFound, name)
	}
	return dt, nil
}

// DeclareSubtype records that sub is a subtype of super, after verifying
// the claim structurally — the repository never stores unsound hierarchy
// edges. Both types must already be registered.
func (r *Local) DeclareSubtype(sub, super string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	subT, ok := r.interfaces[sub]
	if !ok {
		return fmt.Errorf("%w: interface %q", ErrNotFound, sub)
	}
	superT, ok := r.interfaces[super]
	if !ok {
		return fmt.Errorf("%w: interface %q", ErrNotFound, super)
	}
	if err := types.Subtype(subT, superT); err != nil {
		return fmt.Errorf("%w: %v", ErrBadDecl, err)
	}
	set, ok := r.declared[sub]
	if !ok {
		set = make(map[string]bool)
		r.declared[sub] = set
	}
	set[super] = true
	// Declared edges are read back through DeclaredSupertypes, so replicas
	// mirroring this store must learn their copy went stale.
	r.gen.Add(1)
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
	subT, okSub := r.interfaces[sub]
	superT, okSuper := r.interfaces[super]
	r.mu.RUnlock()
	if !okSub {
		return false, fmt.Errorf("%w: interface %q", ErrNotFound, sub)
	}
	if !okSuper {
		return false, fmt.Errorf("%w: interface %q", ErrNotFound, super)
	}
	res := types.IsSubtype(subT, superT)
	r.mu.Lock()
	r.subCache[subKey{sub, super}] = res
	r.mu.Unlock()
	return res, nil
}

// Supertypes returns the sorted names of all registered types that name
// may substitute for (excluding itself).
func (r *Local) Supertypes(name string) ([]string, error) {
	it, err := r.LookupInterface(name)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	candidates := make(map[string]*types.Interface, len(r.interfaces))
	for n, t := range r.interfaces {
		candidates[n] = t
	}
	r.mu.RUnlock()
	var out []string
	for n, t := range candidates {
		if n == name {
			continue
		}
		if types.IsSubtype(it, t) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Subtypes returns the sorted names of all registered types that may
// substitute for name (excluding itself).
func (r *Local) Subtypes(name string) ([]string, error) {
	it, err := r.LookupInterface(name)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	candidates := make(map[string]*types.Interface, len(r.interfaces))
	for n, t := range r.interfaces {
		candidates[n] = t
	}
	r.mu.RUnlock()
	var out []string
	for n, t := range candidates {
		if n == name {
			continue
		}
		if types.IsSubtype(t, it) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out, nil
}

// DeclaredSupertypes returns the sorted supertypes explicitly declared for
// name via DeclareSubtype (the curated hierarchy, as opposed to the
// structural one).
func (r *Local) DeclaredSupertypes(name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for super := range r.declared[name] {
		out = append(out, super)
	}
	sort.Strings(out)
	return out
}

// Relate records a named relationship from one registered type to another
// (e.g. "describes", "manages", "supersedes"). Both endpoints may be
// interface or data type names.
func (r *Local) Relate(relation, from, to string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.known(from) || !r.known(to) {
		return fmt.Errorf("%w: %q -> %q", ErrBadRelate, from, to)
	}
	rel, ok := r.relations[relation]
	if !ok {
		rel = make(map[string]map[string]bool)
		r.relations[relation] = rel
	}
	set, ok := rel[from]
	if !ok {
		set = make(map[string]bool)
		rel[from] = set
	}
	set[to] = true
	r.gen.Add(1)
	return nil
}

// Related returns the sorted targets related to from under relation.
func (r *Local) Related(relation, from string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for to := range r.relations[relation][from] {
		out = append(out, to)
	}
	sort.Strings(out)
	return out
}

func (r *Local) known(name string) bool {
	if _, ok := r.interfaces[name]; ok {
		return true
	}
	_, ok := r.data[name]
	return ok
}
