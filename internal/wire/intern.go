package wire

import (
	"sync"
	"sync/atomic"
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

// Stream elements are the one payload that is mostly transient and comes
// in bulk: a FlowBatch frame carries up to 64 of them, and a consumer
// reads each once and drops it. Decode copies a FlowBatch's bytes payloads
// of at most carveMax bytes into shared chunks instead of giving each its
// own allocation. A chunk is exactly carveChunk bytes, one of the
// allocator's size classes, so it wastes nothing: 32 elements of 1 KiB
// fill it, and a received element costs 1/32 of an allocation. (A chunk
// sized to its frame, about 33 KiB for 32 such elements, would round up to
// the 40 KiB class.) Chunks are shared by consecutive frames and by every
// read loop; carving takes the mutex, the copy does not.
const (
	carveChunk = 32 << 10 // bytes per chunk: a size class, and the most a kept element pins
	carveMax   = 4 << 10  // a larger payload keeps an allocation of its own
)

var carver struct {
	mu   sync.Mutex
	tail []byte // the current chunk's uncarved remainder
}

// carveBytes returns a copy of b, at most carveMax bytes, in a region of
// the current chunk. Each region starts on an 8-byte boundary, so no two
// payloads share a word, and nothing writes a region again once its copy
// is made: the caller hands it to values.BytesOwned. The result never
// aliases b.
func carveBytes(b []byte) []byte {
	n := len(b)
	carver.mu.Lock()
	if len(carver.tail) < n {
		carver.tail = make([]byte, carveChunk)
	}
	dst := carver.tail[:n:n]
	carver.tail = carver.tail[min((n+7)&^7, len(carver.tail)):]
	carver.mu.Unlock()
	copy(dst, b)
	return dst
}
