// Package hashring is the consistent-hash ring shared by the sharded
// infrastructure functions, and the one live shard-move protocol over it
// (Partition). It is a leaf package (no repo imports), so both the trader
// and the relocator can partition over it without dependency cycles.
package hashring

// The ring partitions the infrastructure functions
// (trader offer space by service type, relocator entries by interface id).
// Members are mapped onto the ring at `replicas` virtual points each, so
// adding or removing one member moves only ~1/n of the key space — the
// property that makes live shard rebalancing affordable.
//
// A Ring is an immutable-ish value guarded by its owner: a Partition
// mutates only a clone under its change lock, and every mutation bumps
// the epoch so readers can tell two ring generations apart (the same
// fencing idea the session layer uses for relocation epochs).

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// replicas is the virtual-node count per member. 64 keeps the load
// imbalance across shards in the few-percent range without making ring
// rebuilds noticeable.
const replicas = 64

// Ring is a consistent-hash ring over named members. It is NOT safe for
// concurrent mutation; owners guard it with their own lock (reads of a
// snapshot obtained under that lock are safe).
type Ring struct {
	members map[string]bool
	points  []ringPoint // sorted by hash
	epoch   uint64
}

type ringPoint struct {
	hash   uint64
	member string
}

// New returns an empty ring. Every ring places 64 virtual points per
// member; an argument is ignored, and accepted only because the frozen
// bench/replay.go calls New(0) — the next benchmark PR drops it.
func New(_ ...int) *Ring {
	return &Ring{members: make(map[string]bool)}
}

// Clone returns an independent copy of the ring (same epoch). Owners use
// it to prepare the post-rebalance ring while the old one keeps serving.
func (r *Ring) Clone() *Ring {
	c := &Ring{
		members: make(map[string]bool, len(r.members)),
		points:  make([]ringPoint, len(r.points)),
		epoch:   r.epoch,
	}
	for m := range r.members {
		c.members[m] = true
	}
	copy(c.points, r.points)
	return c
}

// ringHash is FNV-1a with a 64-bit avalanche finalizer. Raw FNV-1a is
// unusable for ring placement: inputs differing only in a trailing
// character hash to values exactly one FNV-prime apart, so a member's
// virtual points ("m#0".."m#63") — and any family of similar keys —
// collapse into one tight cluster on the ring. The finalizer (the
// 64-bit mix from MurmurHash3) spreads them across the whole space.
func ringHash(s string) uint64 { return finalize(fnv1a(fnvOffset, s)) }

// fnv1a continues the 64-bit FNV-1a hash h (fnvOffset to start) over s,
// as hash/fnv computes it but with no hasher or copy of s to allocate.
// Hashing a string in pieces equals hashing it whole.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211 // the FNV prime
	}
	return h
}

const fnvOffset = 14695981039346656037

// finalize is MurmurHash3's 64-bit mix.
func finalize(x uint64) uint64 {
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// Add places a member on the ring and bumps the epoch. Adding an existing
// member is an error (the caller's membership bookkeeping is confused).
func (r *Ring) Add(member string) error {
	if r.members[member] {
		return fmt.Errorf("hashring: ring member %q already present", member)
	}
	r.members[member] = true
	// Virtual point i is ringHash("<member>#<i>"): the shared prefix is
	// hashed once and each point continues from it over i's digits.
	prefix := fnv1a(fnv1a(fnvOffset, member), "#")
	var digits [20]byte
	r.points = slices.Grow(r.points, replicas)
	for i := 0; i < replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash:   finalize(fnv1a(prefix, strconv.AppendInt(digits[:0], int64(i), 10))),
			member: member,
		})
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int { return cmp.Compare(a.hash, b.hash) })
	r.epoch++
	return nil
}

// Remove takes a member off the ring and bumps the epoch.
func (r *Ring) Remove(member string) error {
	if !r.members[member] {
		return fmt.Errorf("hashring: ring member %q not present", member)
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(r.points); i++ {
		r.points[i] = ringPoint{} // clear vacated slots
	}
	r.points = kept
	r.epoch++
	return nil
}

// Owner returns the member owning key: the first virtual point at or
// after the key's hash, wrapping. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Epoch returns the ring generation: it advances on every Add/Remove, so
// two ring views can be ordered and cached routing decisions fenced.
func (r *Ring) Epoch() uint64 { return r.epoch }
