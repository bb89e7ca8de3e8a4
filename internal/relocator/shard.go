// Sharded white pages: the location database partitioned by consistent
// hashing over the interface id. Each shard is any Store — a local
// *Relocator, a *Remote proxy to one hosted elsewhere, or a replicated
// Group — so the relocation function scales horizontally like any other
// ODP service while binders keep talking to one channel.Locator.
//
// Rebalancing is live: a ring change is hashring.Partition's shard-move
// protocol, the sharded trader's too, to which the front-end adds the
// registration move (drain) — Register at the new owner, which orders by
// epoch, so a client re-registering a newer location mid-migration is never
// overwritten by the older copy in flight (the ErrStale guard doing fence
// duty).
package relocator

import (
	"errors"
	"fmt"

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

// Sharded partitions the location database over named shards by
// consistent hashing of the interface id. It satisfies Store (and
// channel.Locator / engineering.LocationRegistry through it), so a node
// or a whole system can be pointed at it unchanged.
type Sharded struct {
	part hashring.Partition[Store] // the shards, keyed by interface id
}

var _ Store = (*Sharded)(nil)

// NewSharded creates an empty sharded relocator front-end.
func NewSharded() *Sharded { return &Sharded{} }

// Register records a location at the owner of its interface id, under the
// partition's write rule: a registration landing on a shard the drain has
// already read would be stranded, so if ownership moved under it Register
// waits the change out, pulls it back and registers again.
func (s *Sharded) Register(ref naming.InterfaceRef) error {
	key := ref.ID.String()
	for {
		name, cur, ok := s.part.View().Owner(key)
		if !ok {
			return ErrNoShards
		}
		if err := cur.Register(ref); err != nil {
			return err
		}
		if s.part.Owns(key, name) {
			return nil
		}
		s.part.Settle()
		cur.Remove(ref.ID)
	}
}

// Lookup resolves a location, falling back to the previous owner during
// a rebalance window. The current owner is read first so a client never
// trades a fresh answer for the stale pre-drain copy; the double-read race
// that ordering opens is closed by re-reading the current owner after the
// previous one (the partition's window rule).
func (s *Sharded) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	key := id.String()
	var err error
	for attempt := 0; ; attempt++ {
		v := s.part.View()
		_, cur, ok := v.Owner(key)
		if !ok {
			return naming.InterfaceRef{}, ErrNoShards
		}
		var ref naming.InterfaceRef
		ref, err = cur.Lookup(id)
		if err == nil {
			return ref, nil
		}
		if old, ok := v.Prev(key); ok && errors.Is(err, ErrUnknown) {
			if ref, ferr := old.Lookup(id); ferr == nil {
				return ref, nil
			}
			if ref, rerr := cur.Lookup(id); rerr == nil {
				return ref, nil
			}
		}
		if s.part.View().Epoch() == v.Epoch() || attempt >= 3 {
			break
		}
	}
	return naming.InterfaceRef{}, err
}

// Move relocates an interface. If the registration is still draining off
// the previous owner mid-rebalance, the move registers it at the current
// owner with its epoch bumped past the old copy, so the late drain is
// fenced; the drain removes the original.
func (s *Sharded) Move(id naming.InterfaceID, to naming.Endpoint) (naming.InterfaceRef, error) {
	key := id.String()
	var err error
	for attempt := 0; ; attempt++ {
		v := s.part.View()
		_, cur, ok := v.Owner(key)
		if !ok {
			return naming.InterfaceRef{}, ErrNoShards
		}
		var ref naming.InterfaceRef
		ref, err = cur.Move(id, to)
		if err == nil {
			return ref, nil
		}
		if old, ok := v.Prev(key); ok && errors.Is(err, ErrUnknown) {
			oldRef, lerr := old.Lookup(id)
			if lerr == nil {
				oldRef.Endpoint = to
				oldRef.Epoch++
				if rerr := cur.Register(oldRef); rerr == nil {
					return oldRef, nil
				}
			}
			// Same double-read race as Lookup: the drain may have landed the
			// entry on the current owner between the two reads.
			if ref, rerr := cur.Move(id, to); rerr == nil {
				return ref, nil
			}
		}
		if s.part.View().Epoch() == v.Epoch() || attempt >= 3 {
			break
		}
	}
	return naming.InterfaceRef{}, err
}

// Remove deletes a registration from its owner. Mid-rebalance it removes
// from the previous owner first, then the current one — the order the
// drain's removal rule relies on — and goes again if the ring flipped
// under it. Removing an unknown id is a no-op.
func (s *Sharded) Remove(id naming.InterfaceID) {
	key := id.String()
	for {
		v := s.part.View()
		_, cur, ok := v.Owner(key)
		if !ok {
			return
		}
		if old, ok := v.Prev(key); ok {
			old.Remove(id)
		}
		cur.Remove(id)
		if s.part.View().Epoch() == v.Epoch() {
			return
		}
	}
}

// Snapshot enumerates every shard that can enumerate itself.
func (s *Sharded) Snapshot() ([]naming.InterfaceRef, error) {
	var out []naming.InterfaceRef
	for _, st := range s.part.View().Members() {
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
	return s.part.Add(name, store, s.drain)
}

// drain is the relocator's half of a ring change: Snapshot the donor,
// Register each registration it gives up at the new owner, then Remove it
// from the donor. Register's epoch ordering makes the copy safe against
// concurrent client re-registrations: a newer epoch already at the
// destination refuses the older copy (ErrStale), which drain treats as
// success — the entry has simply moved on. A copy stays only if the donor
// still held the original; Remove reports nothing, so the donor is looked
// up first, and ErrUnknown there means a client removed the entry after
// the snapshot — the copy is removed too.
func (s *Sharded) drain(name string, donor Store, dest func(string) (Store, bool)) error {
	en, ok := donor.(Enumerable)
	if !ok {
		return fmt.Errorf("relocator: shard %q cannot enumerate; its registrations were not migrated", name)
	}
	refs, err := en.Snapshot()
	if err != nil {
		return fmt.Errorf("relocator: snapshotting shard %q: %w", name, err)
	}
	var firstErr error
	for _, ref := range refs {
		dst, ok := dest(ref.ID.String())
		if !ok {
			continue
		}
		err := dst.Register(ref)
		stale := errors.Is(err, ErrStale)
		if err != nil && !stale {
			if firstErr == nil {
				firstErr = fmt.Errorf("relocator: migrating %s off %s: %w", ref.ID, name, err)
			}
			continue
		}
		if _, err := donor.Lookup(ref.ID); errors.Is(err, ErrUnknown) {
			if !stale {
				dst.Remove(ref.ID)
			}
			continue
		}
		donor.Remove(ref.ID)
	}
	return firstErr
}
