// Client-side relocation cache: the bounded, epoch-fenced lookaside that
// sits between a binder and the (possibly sharded, possibly remote)
// relocator, so the hot re-bind path pays a map read instead of a remote
// lookup while its entry is fresh.
//
// Freshness is epoch-fenced, reusing the relocation-epoch ordering the
// session layer already trusts: every InterfaceRef carries the count of
// relocations it has survived, so once the cache learns that epoch e
// exists for an interface, any ref with a smaller epoch is provably dead
// and is never served from the cache again (Fence). Staleness signals —
// a server answering "no such interface", a relocator rejecting a
// registration with ErrStale — invalidate the entry (Invalidate), which
// the binding layer calls through channel.LocationInvalidator so the
// next refresh reaches the authority instead of re-reading the same
// stale cache line.
package relocator

import (
	"sync"
	"sync/atomic"

	"repro/internal/naming"
)

// Source is anything the cache can fall back to for an authoritative
// lookup: a *Relocator, *Remote, *Sharded or *Group.
type Source interface {
	Lookup(id naming.InterfaceID) (naming.InterfaceRef, error)
}

// CacheStats counts cache activity.
type CacheStats struct {
	Hits        uint64
	Misses      uint64 // lookups that went to the source
	Evictions   uint64 // entries displaced by the capacity bound
	Fenced      uint64 // cached refs dropped because a newer epoch was learned
	Invalidated uint64 // entries dropped by staleness signals
	Entries     int    // records currently held (cached refs + bare fences)
}

type cacheRecord struct {
	ref    naming.InterfaceRef
	hasRef bool
	fence  uint64 // epochs below this are dead for the interface
	token  uint64 // FIFO position for eviction
}

// Cache is a bounded, epoch-fenced location cache in front of a Source.
// It satisfies channel.Locator (Lookup) and channel.LocationInvalidator
// (Invalidate), and is safe for concurrent use.
type Cache struct {
	src Source
	cap int

	mu      sync.Mutex
	records map[naming.InterfaceID]*cacheRecord
	// order is the FIFO of (id, token) insertions; eviction pops entries
	// whose token still matches. It is compacted when it outgrows the
	// live set, so memory stays bounded by the capacity.
	order     []fifoSlot
	nextToken uint64

	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	fenced      atomic.Uint64
	invalidated atomic.Uint64
}

type fifoSlot struct {
	id    naming.InterfaceID
	token uint64
}

// NewCache creates a cache of at most capacity records (cached refs and
// bare fence markers count alike) over the authoritative source.
// capacity <= 0 selects 1024.
func NewCache(src Source, capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Cache{
		src:     src,
		cap:     capacity,
		records: make(map[naming.InterfaceID]*cacheRecord), // grown on use: pre-sized, 1,024 records are 140 KB a cache
	}
}

// Lookup returns the cached location when fresh, otherwise asks the
// source and caches the answer. An answer older than the interface's
// fence is returned (the authority may genuinely lag) but never cached —
// so the cache itself never serves a fenced epoch.
func (c *Cache) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	c.mu.Lock()
	if rec, ok := c.records[id]; ok && rec.hasRef {
		ref := rec.ref
		c.mu.Unlock()
		c.hits.Add(1)
		return ref, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	ref, err := c.src.Lookup(id)
	if err != nil {
		return naming.InterfaceRef{}, err
	}
	c.store(ref)
	return ref, nil
}

// store caches ref unless its epoch is below the interface's fence, and
// advances the fence to the ref's epoch (epochs are monotonic: seeing e
// proves everything below e is dead).
func (c *Cache) store(ref naming.InterfaceRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.records[ref.ID]
	if !ok {
		c.evictLocked(1)
		rec = &cacheRecord{}
		c.records[ref.ID] = rec
		c.pushLocked(ref.ID, rec)
	}
	if ref.Epoch < rec.fence {
		return // authority lagging behind a known-newer epoch: do not cache
	}
	rec.ref = ref
	rec.hasRef = true
	rec.fence = ref.Epoch
}

// Observe feeds a relocator event into the cache (wire it to
// Relocator.Subscribe when the authority is co-resident): registrations
// and moves refresh the entry and fence older epochs, removals drop it.
func (c *Cache) Observe(ev Event) {
	if ev.Removed {
		c.Invalidate(ev.Ref.ID)
		return
	}
	c.store(ev.Ref)
	c.Fence(ev.Ref.ID, ev.Ref.Epoch)
}

// Fence records that epochs below epoch are dead for the interface,
// dropping any older cached ref. The binding layer calls this when a
// relocation is adopted; a bare fence (no cached ref yet) is retained so
// a lagging authority cannot repopulate the dead epoch.
func (c *Cache) Fence(id naming.InterfaceID, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.records[id]
	if !ok {
		c.evictLocked(1)
		rec = &cacheRecord{fence: epoch}
		c.records[id] = rec
		c.pushLocked(id, rec)
		return
	}
	if epoch > rec.fence {
		rec.fence = epoch
		if rec.hasRef && rec.ref.Epoch < epoch {
			rec.hasRef = false
			rec.ref = naming.InterfaceRef{}
			c.fenced.Add(1)
		}
	}
}

// Invalidate drops the cached ref for the interface (the fence, if any,
// survives). The binding layer calls this on staleness evidence so its
// next refresh reaches the authority.
func (c *Cache) Invalidate(id naming.InterfaceID) {
	c.mu.Lock()
	rec, ok := c.records[id]
	if ok && rec.hasRef {
		rec.hasRef = false
		rec.ref = naming.InterfaceRef{}
		c.invalidated.Add(1)
	}
	c.mu.Unlock()
}

// pushLocked appends the record to the FIFO under a fresh token.
func (c *Cache) pushLocked(id naming.InterfaceID, rec *cacheRecord) {
	c.nextToken++
	rec.token = c.nextToken
	c.order = append(c.order, fifoSlot{id: id, token: rec.token})
	if len(c.order) > 4*c.cap {
		kept := c.order[:0]
		for _, s := range c.order {
			if r, ok := c.records[s.id]; ok && r.token == s.token {
				kept = append(kept, s)
			}
		}
		c.order = kept
	}
}

// evictLocked makes room for n new records by popping the oldest live
// FIFO slots until the capacity bound holds.
func (c *Cache) evictLocked(n int) {
	for len(c.records)+n > c.cap && len(c.order) > 0 {
		slot := c.order[0]
		c.order = c.order[1:]
		rec, ok := c.records[slot.id]
		if !ok || rec.token != slot.token {
			continue // superseded slot; the record moved or is gone
		}
		delete(c.records, slot.id)
		c.evictions.Add(1)
	}
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.records)
	c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Fenced:      c.fenced.Load(),
		Invalidated: c.invalidated.Load(),
		Entries:     entries,
	}
}
