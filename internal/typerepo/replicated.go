// Replicated is the read-mostly replication front-end over a Repository
// authority. The tutorial's type repository (Section 8.3.1) is consulted
// on every trading match and every bind-time causality check, and at
// swarm scale those reads all contended on one sync.RWMutex. Replication
// transparency says the fix must not change the call-site contract, so
// Replicated implements the same Repository interface: writes funnel to
// the authority (which may itself be a coordination.ReplicaGroup-ordered
// fleet), and reads are served from per-replica copies fenced by the
// authority's generation counter — the same invalidation protocol the
// trader uses for its subtype-closure memo.
package typerepo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Replicated serves Repository reads from gen-versioned local replicas
// and delegates writes to the authority. It is safe for concurrent use.
//
// Freshness contract: every mutation bumps the authority's generation
// while the authority's write lock is held, and a replica only marks its
// copy current after confirming the generation did not move during the
// copy. A read therefore never serves a memo from before a completed
// write: once RegisterInterface has returned, every subsequent read on
// any replica observes the new type.
type Replicated struct {
	authority Repository
	replicas  []*replica
	next      atomic.Uint64 // round-robin replica pick

	reads   atomic.Uint64 // reads served from a replica copy
	resyncs atomic.Uint64 // full copy rebuilds
	misses  atomic.Uint64 // reads that found their replica stale
}

// replica is one gen-fenced copy of the authority's interface types.
// local is swapped wholesale on resync so readers never observe a
// half-built copy; synced holds authorityGen+1 (0 means "never synced",
// which is distinct from a fresh authority's gen 0).
type replica struct {
	mu     sync.Mutex // serialises resyncs of this replica
	synced atomic.Uint64
	local  atomic.Pointer[Local]
}

// NewReplicated wraps authority with n read replicas (n < 1 is treated
// as 1 — the front-end degenerates to a single fenced cache). Intended
// use is one replica per host or per trader shard, so hot IsSubtype and
// lookup reads touch only host-local state.
func NewReplicated(authority Repository, n int) *Replicated {
	if n < 1 {
		n = 1
	}
	p := &Replicated{authority: authority, replicas: make([]*replica, n)}
	for i := range p.replicas {
		r := &replica{}
		r.local.Store(New())
		p.replicas[i] = r
	}
	return p
}

// Gen reports the authority's generation — the fence replicas sync to.
func (p *Replicated) Gen() uint64 { return p.authority.Gen() }

// ReplicatedStats counts front-end traffic: reads served from replica
// copies, reads that found their replica stale, and full resyncs.
type ReplicatedStats struct {
	Reads   uint64
	Misses  uint64
	Resyncs uint64
}

// Stats returns a snapshot of the front-end counters.
func (p *Replicated) Stats() ReplicatedStats {
	return ReplicatedStats{
		Reads:   p.reads.Load(),
		Misses:  p.misses.Load(),
		Resyncs: p.resyncs.Load(),
	}
}

// view returns a replica copy that reflects at least the authority
// generation observed at entry, rebuilding the copy if it is stale. A
// rebuild that cannot read the authority returns the failure and leaves
// the replica stale, so the next read tries again.
func (p *Replicated) view() (*Local, error) {
	rep := p.replicas[p.next.Add(1)%uint64(len(p.replicas))]
	p.reads.Add(1)
	gen := p.authority.Gen()
	if rep.synced.Load() == gen+1 {
		return rep.local.Load(), nil
	}
	p.misses.Add(1)

	rep.mu.Lock()
	defer rep.mu.Unlock()
	// A concurrent resync may have caught us up while we waited.
	gen = p.authority.Gen()
	if rep.synced.Load() == gen+1 {
		return rep.local.Load(), nil
	}

	// Rebuild from the authority's public surface: one listing, then one
	// lookup per name. The copy is built off to the side and swapped in
	// whole.
	p.resyncs.Add(1)
	names, err := p.authority.Interfaces()
	if err != nil {
		return nil, fmt.Errorf("typerepo: replica resync: %w", err)
	}
	fresh := New()
	for _, name := range names {
		it, err := p.authority.LookupInterface(name)
		if err == nil {
			err = fresh.RegisterInterface(it)
		}
		if err != nil {
			return nil, fmt.Errorf("typerepo: replica resync: %w", err)
		}
	}
	after := p.authority.Gen()
	rep.local.Store(fresh)
	if after == gen {
		rep.synced.Store(gen + 1)
	} else {
		// A write landed mid-copy: the copy is still a consistent view of
		// some prefix (the store only grows), but it must not be marked
		// current — the next read will resync past the new write.
		rep.synced.Store(0)
	}
	return fresh, nil
}

// --- reads served from a replica copy ---

// LookupInterface returns the interface type registered under name.
func (p *Replicated) LookupInterface(name string) (*types.Interface, error) {
	v, err := p.view()
	if err != nil {
		return nil, err
	}
	return v.LookupInterface(name)
}

// Interfaces returns the sorted names of all registered interface types.
func (p *Replicated) Interfaces() ([]string, error) {
	v, err := p.view()
	if err != nil {
		return nil, err
	}
	return v.Interfaces()
}

// IsSubtype reports whether sub may substitute for super, served from a
// replica's memo table.
func (p *Replicated) IsSubtype(sub, super string) (bool, error) {
	v, err := p.view()
	if err != nil {
		return false, err
	}
	return v.IsSubtype(sub, super)
}

// --- writes and cold checks, funnelled to the authority ---

// RegisterInterface registers it with the authority; replicas observe the
// generation bump and resync on their next read.
func (p *Replicated) RegisterInterface(it *types.Interface) error {
	return p.authority.RegisterInterface(it)
}

// DeclareSubtype checks a declared subtype claim at the authority. The
// check changes nothing, so no replica resyncs for it, and a declaration
// made just after a registration does not rebuild a copy.
func (p *Replicated) DeclareSubtype(sub, super string) error {
	return p.authority.DeclareSubtype(sub, super)
}
