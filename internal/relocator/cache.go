// Client-side relocation cache: the bounded lookaside between a binder
// and the (possibly sharded, possibly remote) relocator, so a re-bind
// pays a map read instead of a remote lookup.
//
// It keeps the binder's one coherence rule (Section 9.2): an entry stands
// until a binding holding staleness evidence — a server answering "no
// such interface", a dead endpoint — drops it with Invalidate (through
// channel.LocationInvalidator) and asks again. Nothing is pushed to it,
// so the rule holds in front of any authority, local or remote. An
// answer older than the epoch the cache holds for the interface (a
// sharded authority can lag mid-drain), or to a lookup begun before an
// Invalidate, is returned but not cached: a Lookup that starts after
// Invalidate(id) returns never answers an epoch older than the one the
// authority held then.
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
	Invalidated uint64 // entries dropped by staleness signals
	Entries     int    // records currently held, invalidated ones included
}

type cacheRecord struct {
	ref   naming.InterfaceRef // the newest answer cached; Invalidate keeps its epoch
	valid bool                // ref may be served
	token uint64              // FIFO position for eviction
}

// Cache is a bounded location cache in front of a Source.
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
	// gen counts Invalidate calls; a lookup caches its answer only if
	// none ran while it asked the source.
	gen uint64

	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	invalidated atomic.Uint64
}

type fifoSlot struct {
	id    naming.InterfaceID
	token uint64
}

// NewCache creates a cache of at most capacity records (1024 when
// capacity <= 0) over the authoritative source.
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

// Lookup returns the cached location, or asks the source and caches its
// answer unless a guard in the file comment refuses it.
func (c *Cache) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	c.mu.Lock()
	if rec, ok := c.records[id]; ok && rec.valid {
		ref := rec.ref
		c.mu.Unlock()
		c.hits.Add(1)
		return ref, nil
	}
	gen := c.gen
	c.mu.Unlock()
	c.misses.Add(1)
	ref, err := c.src.Lookup(id)
	if err != nil {
		return naming.InterfaceRef{}, err
	}
	c.store(ref, gen)
	return ref, nil
}

// store caches ref, the answer to a lookup begun at generation gen,
// unless an Invalidate has run since or the cache holds a newer epoch
// for the interface (epochs are monotonic: the authority lags).
func (c *Cache) store(ref naming.InterfaceRef, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	rec, ok := c.records[ref.ID]
	if !ok {
		c.evictLocked(1)
		rec = &cacheRecord{}
		c.records[ref.ID] = rec
		c.pushLocked(ref.ID, rec)
	} else if ref.Epoch < rec.ref.Epoch {
		return
	}
	rec.ref, rec.valid = ref, true
}

// Invalidate drops the cached location for the interface, keeping its
// epoch as the floor for what may be cached next. The binding layer calls
// this on staleness evidence so its next refresh reaches the authority.
func (c *Cache) Invalidate(id naming.InterfaceID) {
	c.mu.Lock()
	c.gen++
	if rec, ok := c.records[id]; ok && rec.valid {
		rec.valid = false
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
		Invalidated: c.invalidated.Load(),
		Entries:     entries,
	}
}
