// Sharded white pages: the location database partitioned by consistent
// hashing over the interface id. Each shard is any Store — a local
// *Relocator, a *Remote proxy to one hosted elsewhere, or a replicated
// Group — so the relocation function scales horizontally like any other
// ODP service while binders keep talking to one channel.Locator.
//
// Rebalancing is live and mirrors the sharded trader's protocol: a ring
// change first opens a double-read window (lookups that miss on the new
// owner retry the previous owner), then drains the moving registrations
// with Register — which the destination orders by epoch, so a client
// re-registering a newer location mid-migration can never be overwritten
// by the older copy in flight (the ErrStale guard doing fence duty).
package relocator

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hashring"
	"repro/internal/naming"
)

// ErrNoShards reports an operation on a sharded relocator with an empty
// ring.
var ErrNoShards = errors.New("relocator: sharded relocator has no shards")

// Store is one partition of the location database: the white-pages
// operations sharding routes. *Relocator, *Remote (over a binding or a
// replica group) and *Sharded all satisfy it (Sharded nests).
type Store interface {
	Register(ref naming.InterfaceRef) error
	Lookup(id naming.InterfaceID) (naming.InterfaceRef, error)
	Move(id naming.InterfaceID, to naming.Endpoint) (naming.InterfaceRef, error)
	Remove(id naming.InterfaceID)
}

// Enumerable is the optional Store capability live migration needs: a
// snapshot of every registration the store holds.
type Enumerable interface {
	Snapshot() ([]naming.InterfaceRef, error)
}

var (
	_ Store      = (*Relocator)(nil)
	_ Store      = (*Remote)(nil)
	_ Enumerable = (*Remote)(nil)
)

// Snapshot adapts the local relocator's Entries to the Enumerable
// capability (same data, error-bearing signature).
func (r *Relocator) Snapshot() ([]naming.InterfaceRef, error) { return r.Entries(), nil }

// ShardedStats counts sharded-relocation activity at the front-end.
type ShardedStats struct {
	Lookups    uint64
	Fallbacks  uint64 // lookups answered by the previous owner mid-rebalance
	Misses     uint64
	Registers  uint64
	Moves      uint64
	Rebalances uint64
	Migrated   uint64 // registrations moved live by rebalances
	RingEpoch  uint64
}

// Sharded partitions the location database over named shards by
// consistent hashing of the interface id. It satisfies Store (and
// channel.Locator / engineering.LocationRegistry through it), so a node
// or a whole system can be pointed at it unchanged.
type Sharded struct {
	mu     sync.RWMutex
	ring   *hashring.Ring
	prev   *hashring.Ring // non-nil while a rebalance is draining
	shards map[string]Store

	rebalanceMu sync.Mutex

	lookups   atomic.Uint64
	fallbacks atomic.Uint64
	misses    atomic.Uint64
	registers atomic.Uint64
	moves     atomic.Uint64
	rebals    atomic.Uint64
	migrated  atomic.Uint64
	ringEpoch atomic.Uint64
}

var _ Store = (*Sharded)(nil)

// NewSharded creates an empty sharded relocator front-end.
func NewSharded() *Sharded {
	return &Sharded{
		ring:   hashring.New(0),
		shards: make(map[string]Store),
	}
}

// Shards returns the sorted shard names on the ring.
func (s *Sharded) Shards() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Members()
}

// RingEpoch returns the current ring generation.
func (s *Sharded) RingEpoch() uint64 { return s.ringEpoch.Load() }

// owner returns the shard owning id under the current ring, plus — when
// a rebalance is draining — the previous owner if it differs.
func (s *Sharded) owner(id naming.InterfaceID) (cur Store, old Store) {
	key := id.String()
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur = s.shards[s.ring.Owner(key)]
	if s.prev != nil {
		if oldName := s.prev.Owner(key); oldName != s.ring.Owner(key) {
			old = s.shards[oldName]
		}
	}
	return cur, old
}

// Register records a location at the owner of its interface id. If a
// ring flip races the write — the registration landing on a shard that
// just donated its key range, after the drain already enumerated it —
// the entry would be stranded, so Register re-checks ownership after the
// write and re-routes itself (pulling the misplaced copy back) until the
// routing holds still.
func (s *Sharded) Register(ref naming.InterfaceRef) error {
	key := ref.ID.String()
	for attempt := 0; ; attempt++ {
		s.mu.RLock()
		name := s.ring.Owner(key)
		cur := s.shards[name]
		s.mu.RUnlock()
		if cur == nil {
			return ErrNoShards
		}
		if err := cur.Register(ref); err != nil {
			return err
		}
		s.mu.RLock()
		moved := s.ring.Owner(key) != name
		s.mu.RUnlock()
		if !moved || attempt >= 3 {
			s.registers.Add(1)
			return nil
		}
		// Ownership flipped mid-write; the drain may never see this copy.
		// Remove it (a no-op if the drain did pick it up) and re-route.
		cur.Remove(ref.ID)
	}
}

// Lookup resolves a location, falling back to the previous owner during
// a rebalance window (the registration may not have drained yet). The
// current owner is read first so a client never trades a fresh answer
// for the stale pre-drain copy; the double-read race that ordering opens
// (entry copied to the new owner after the first read, removed from the
// donor before the second) is closed by re-reading the current owner
// once — the drain registers at the destination before removing from the
// donor, so a miss on both means the copy was already at the destination
// before the re-read started.
func (s *Sharded) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	s.lookups.Add(1)
	var err error
	for attempt := 0; ; attempt++ {
		// Epoch sampled before the routing snapshot: a flip between snapshot
		// and read (which can route the lookup at a shard that donates the
		// entry before the read lands) is caught by the recheck below.
		epoch := s.ringEpoch.Load()
		cur, old := s.owner(id)
		if cur == nil {
			return naming.InterfaceRef{}, ErrNoShards
		}
		var ref naming.InterfaceRef
		ref, err = cur.Lookup(id)
		if err == nil {
			return ref, nil
		}
		if old != nil && errors.Is(err, ErrUnknown) {
			if ref, ferr := old.Lookup(id); ferr == nil {
				s.fallbacks.Add(1)
				return ref, nil
			}
			if ref, rerr := cur.Lookup(id); rerr == nil {
				s.fallbacks.Add(1)
				return ref, nil
			}
		}
		if s.ringEpoch.Load() == epoch || attempt >= 3 {
			break
		}
	}
	s.misses.Add(1)
	return naming.InterfaceRef{}, err
}

// Move relocates an interface. If the registration is still draining off
// the previous owner mid-rebalance, the move drags it to the current
// owner (epoch bumped past the old copy, so the late drain is fenced).
func (s *Sharded) Move(id naming.InterfaceID, to naming.Endpoint) (naming.InterfaceRef, error) {
	var err error
	for attempt := 0; ; attempt++ {
		epoch := s.ringEpoch.Load()
		cur, old := s.owner(id)
		if cur == nil {
			return naming.InterfaceRef{}, ErrNoShards
		}
		var ref naming.InterfaceRef
		ref, err = cur.Move(id, to)
		if err == nil {
			s.moves.Add(1)
			return ref, nil
		}
		if old != nil && errors.Is(err, ErrUnknown) {
			oldRef, lerr := old.Lookup(id)
			if lerr == nil {
				oldRef.Endpoint = to
				oldRef.Epoch++
				if rerr := cur.Register(oldRef); rerr == nil {
					old.Remove(id)
					s.moves.Add(1)
					return oldRef, nil
				}
			}
			// Same double-read race as Lookup: the drain may have landed the
			// entry on the current owner between the two reads.
			if ref, rerr := cur.Move(id, to); rerr == nil {
				s.moves.Add(1)
				return ref, nil
			}
		}
		if s.ringEpoch.Load() == epoch || attempt >= 3 {
			break
		}
	}
	return naming.InterfaceRef{}, err
}

// Remove deletes a registration from its owner (and, mid-rebalance, from
// the previous owner too — removing an unknown id is a no-op).
func (s *Sharded) Remove(id naming.InterfaceID) {
	cur, old := s.owner(id)
	if cur != nil {
		cur.Remove(id)
	}
	if old != nil {
		old.Remove(id)
	}
}

// Snapshot enumerates every shard that can enumerate itself.
func (s *Sharded) Snapshot() ([]naming.InterfaceRef, error) {
	s.mu.RLock()
	stores := make([]Store, 0, len(s.shards))
	for _, st := range s.shards {
		stores = append(stores, st)
	}
	s.mu.RUnlock()
	var out []naming.InterfaceRef
	for _, st := range stores {
		en, ok := st.(Enumerable)
		if !ok {
			return nil, fmt.Errorf("relocator: shard cannot enumerate")
		}
		refs, err := en.Snapshot()
		if err != nil {
			return nil, err
		}
		out = append(out, refs...)
	}
	return out, nil
}

// AddShard joins a shard to the ring and live-drains every registration
// whose ownership moved to it. Lookups keep flowing: until a moving
// registration drains, the previous owner answers the fallback read.
// Shards that cannot enumerate (no Enumerable) stay correct for new
// registrations but cannot donate existing ones; AddShard then reports
// an error after the ring has still been updated.
func (s *Sharded) AddShard(name string, store Store) error {
	return s.changeRing(func(next *hashring.Ring) (map[string]Store, error) {
		if _, dup := s.shards[name]; dup {
			return nil, fmt.Errorf("relocator: shard %q already present", name)
		}
		if err := next.Add(name); err != nil {
			return nil, err
		}
		// Every shard already on the ring may hold keys the newcomer takes.
		donors := make(map[string]Store, len(s.shards))
		for n, st := range s.shards {
			donors[n] = st
		}
		s.shards[name] = store
		return donors, nil
	}, "")
}

// RemoveShard drains a shard's registrations to their new owners, then
// drops it from the ring. The shard object itself is not closed.
func (s *Sharded) RemoveShard(name string) error {
	return s.changeRing(func(next *hashring.Ring) (map[string]Store, error) {
		store, ok := s.shards[name]
		if !ok {
			return nil, fmt.Errorf("relocator: no shard %q", name)
		}
		if len(s.shards) == 1 {
			return nil, fmt.Errorf("relocator: cannot remove last shard %q", name)
		}
		return map[string]Store{name: store}, next.Remove(name)
	}, name)
}

// changeRing is the one ring-change protocol. edit changes the membership
// of next, a clone of the ring, and of s.shards, under s.mu, and returns
// the shards that may hold registrations the change moves. The ring then
// flips with the previous one kept for the fallback read, the donors
// drain, and the window closes; a shard named as leaving stays in
// s.shards — reachable through that fallback — until then.
func (s *Sharded) changeRing(edit func(next *hashring.Ring) (donors map[string]Store, err error), leaving string) error {
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()

	s.mu.Lock()
	prev, next := s.ring, s.ring.Clone()
	donors, err := edit(next)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.prev, s.ring = prev, next
	s.ringEpoch.Store(next.Epoch())
	s.mu.Unlock()

	err = s.drain(donors, next, prev)

	s.mu.Lock()
	s.prev = nil
	delete(s.shards, leaving)
	s.mu.Unlock()
	s.rebals.Add(1)
	return err
}

// drain copies each donor's registrations whose owner changed between
// prev and next onto the new owner, then removes them from the donor.
// Register's epoch ordering makes the copy safe against concurrent
// client re-registrations: a newer epoch already at the destination
// refuses the older draining copy (ErrStale), which drain treats as
// success — the entry has simply moved on.
func (s *Sharded) drain(donors map[string]Store, next, prev *hashring.Ring) error {
	var firstErr error
	for donorName, donor := range donors {
		en, ok := donor.(Enumerable)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("relocator: shard %q cannot enumerate; its registrations were not migrated", donorName)
			}
			continue
		}
		refs, err := en.Snapshot()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("relocator: snapshotting shard %q: %w", donorName, err)
			}
			continue
		}
		for _, ref := range refs {
			key := ref.ID.String()
			newOwner := next.Owner(key)
			if newOwner == donorName && prev.Owner(key) == donorName {
				continue // not moving
			}
			s.mu.RLock()
			dst := s.shards[newOwner]
			s.mu.RUnlock()
			if dst == nil || dst == donor {
				continue
			}
			if err := dst.Register(ref); err != nil && !errors.Is(err, ErrStale) {
				if firstErr == nil {
					firstErr = fmt.Errorf("relocator: migrating %s to %s: %w", ref.ID, newOwner, err)
				}
				continue
			}
			donor.Remove(ref.ID)
			s.migrated.Add(1)
		}
	}
	return firstErr
}

// Stats returns a snapshot of front-end counters.
func (s *Sharded) Stats() ShardedStats {
	return ShardedStats{
		Lookups:    s.lookups.Load(),
		Fallbacks:  s.fallbacks.Load(),
		Misses:     s.misses.Load(),
		Registers:  s.registers.Load(),
		Moves:      s.moves.Load(),
		Rebalances: s.rebals.Load(),
		Migrated:   s.migrated.Load(),
		RingEpoch:  s.ringEpoch.Load(),
	}
}
