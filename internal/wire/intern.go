package wire

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/values"
)

// The decode hot path turns the same handful of byte strings — operation
// names, termination names, record field names, enum symbols, the ids a
// busy client names on every call — into Go strings over and over, and
// each conversion allocates. A small lock-free intern table short-circuits
// the conversion: a hit returns the shared instance with zero allocations.
// Each hash bucket holds two strings: a miss puts the new string in the
// first slot and moves the one it displaces to the second, so two hot
// strings that share a bucket both stay cached, and only a third evicts
// one. The table is bounded and needs no other eviction: 2,048 buckets of two
// pointers are 32 KiB, and the at most 4,096 strings they keep are at most
// internMaxLen bytes each, about 320 KiB with their headers. A miss costs
// two allocations: the conversion, and the cell the slot points at.
const (
	internBuckets = 2048 // power of two
	internMaxLen  = 64   // longer strings are unlikely to repeat; skip them
)

var internTab [internBuckets][2]atomic.Pointer[string]

// internBytes returns a string equal to b, reusing a cached instance when
// one exists. The result never aliases b.
func internBytes(b []byte) string {
	n := len(b)
	if n == 0 {
		return ""
	}
	if n > internMaxLen {
		return string(b)
	}
	bucket := &internTab[internHash(b)&(internBuckets-1)]
	for i := range bucket {
		if p := bucket[i].Load(); p != nil && *p == string(b) {
			return *p
		}
	}
	s := string(b)
	bucket[1].Store(bucket[0].Load())
	bucket[0].Store(&s)
	return s
}

// internHash is FNV-1a.
func internHash(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// Two kinds of payload are copied into regions carved from shared chunks
// instead of allocated one by one. A FlowBatch's bytes elements, which a
// consumer mostly reads once and drops, go to chunks of exactly
// carveChunk bytes, one of the allocator's size classes, so 32 elements of
// 1 KiB fill one and each costs 1/32 of an allocation (a chunk sized to
// its frame, about 33 KiB, would round up to the 40 KiB class). A call's
// results, when they are a few flat values (CloneValues), go to chunks of
// valueChunk values, 3,200 B, also a size class.
const (
	carveChunk     = 32 << 10 // bytes per chunk: a size class, and the most a kept element pins
	carveMax       = 4 << 10  // a larger payload keeps an allocation of its own
	valueChunk     = 80       // values per chunk: 3,200 B, a size class
	carveMaxValues = 8        // a longer result list keeps an allocation of its own
)

// A carver hands out disjoint regions of a shared chunk of T, each
// starting on a multiple of step elements (a power of two). A region is
// cut with a full slice expression, so an append to it reallocates
// instead of writing into the next one, and nothing writes it again once
// its copy is made. Carving takes the mutex, the copy does not.
type carver[T any] struct {
	mu          sync.Mutex
	tail        []T // the current chunk's uncarved remainder
	chunk, step int
}

var (
	byteCarver  = carver[byte]{chunk: carveChunk, step: 8} // no two payloads share a word
	valueCarver = carver[values.Value]{chunk: valueChunk, step: 1}
)

// carve returns a copy of src, at most c.chunk elements, in a region of
// the current chunk, starting a new chunk when src does not fit.
func (c *carver[T]) carve(src []T) []T {
	n := len(src)
	c.mu.Lock()
	if len(c.tail) < n {
		c.tail = make([]T, c.chunk)
	}
	dst := c.tail[:n:n]
	c.tail = c.tail[min((n+c.step-1)&^(c.step-1), len(c.tail)):]
	c.mu.Unlock()
	copy(dst, src)
	return dst
}

// carveBytes returns a copy of b, at most carveMax bytes, for
// values.BytesOwned.
func carveBytes(b []byte) []byte { return byteCarver.carve(b) }

// CloneValues returns a copy of vs that the caller owns, of the same
// length and nil-ness as slices.Clone's. At most carveMaxValues flat
// values (scalars, and strings, enums and bytes of at most internMaxLen
// bytes) are carved: keeping them pins one 3,200 B chunk and its other
// values' short payloads. Anything else (a record, a seq, an any or a
// longer payload among vs) gets a slice of its own, so a kept result
// never pins another caller's large value.
func CloneValues(vs []values.Value) []values.Value {
	if len(vs) == 0 || len(vs) > carveMaxValues {
		return slices.Clone(vs)
	}
	for _, v := range vs {
		s, _ := v.AsString()
		e, _ := v.AsEnum()
		b, _ := v.BytesView()
		if k := v.Kind(); k == values.KindRecord || k == values.KindSeq || k == values.KindAny ||
			len(s)+len(e)+len(b) > internMaxLen {
			return slices.Clone(vs)
		}
	}
	return valueCarver.carve(vs)
}
