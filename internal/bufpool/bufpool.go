// Package bufpool provides size-classed free lists of byte buffers shared
// by the wire layer and the transports, so one frame buffer can travel the
// whole hot path — encode, transport copy, receive, decode — and then be
// recycled instead of garbage-collected, and List, the one bounded free
// list the tree keeps idle values of any type in.
//
// Buffers flow between packages: a channel client encodes into a pooled
// buffer, the simulated network copies frames into pooled buffers, and the
// receiving channel end returns frames to the pool once decoding has
// copied every escaping payload out. Ownership is strict: after Put the
// caller must not touch the buffer again.
package bufpool

// List is a bounded free list: it keeps at most cap(l) idle values, drops
// any past that, and never blocks. A nil List keeps nothing. Unlike a
// sync.Pool it is neither emptied by a GC nor thinned at random under the
// race detector, so a caller allocates the same every time, and it boxes
// nothing, so keeping a []byte costs no allocation. A kept value keeps
// alive whatever it points to: the caller clears what it must not pin
// before Put.
type List[T any] chan T

// Get returns a kept value, or fresh() when none waits.
func (l List[T]) Get(fresh func() T) T {
	select {
	case v := <-l:
		return v
	default:
		return fresh()
	}
}

// Put keeps v, unless cap(l) values wait already.
func (l List[T]) Put(v T) {
	select {
	case l <- v:
	default:
	}
}

// classes are the buffer capacities served, smallest first, each with the
// free list its buffers wait in. A class keeps the capacities from its size
// to just below its next class's size (the last, only its own), and slot
// counts shrink as sizes grow, so what waits is at most 20,708,872 B, just
// under 20 MiB.
var classes = []struct {
	size int
	free List[[]byte]
}{
	{256, make(List[[]byte], 256)},
	{1 << 10, make(List[[]byte], 128)},
	{4 << 10, make(List[[]byte], 64)},
	{16 << 10, make(List[[]byte], 32)},
	{64 << 10, make(List[[]byte], 16)},
	{256 << 10, make(List[[]byte], 8)},
	{1 << 20, make(List[[]byte], 4)},
}

// Get returns a zero-length buffer with capacity at least size, reusing a
// pooled buffer when one is available. Buffers larger than the biggest
// class are allocated directly.
func Get(size int) []byte {
	for _, c := range classes {
		if c.size >= size {
			return c.free.Get(func() []byte { return make([]byte, 0, c.size) })
		}
	}
	return make([]byte, 0, size)
}

// Put recycles a buffer for a later Get. Buffers smaller than the smallest
// class or larger than the biggest are dropped, as are buffers arriving
// when the class is full. Put(nil) is a no-op. The caller must not use b
// after Put returns.
func Put(b []byte) {
	c := cap(b)
	if c < classes[0].size || c > classes[len(classes)-1].size {
		return
	}
	// File b in the largest class whose size fits within cap(b), so a Get
	// for that class is guaranteed the capacity it asked for.
	i := len(classes) - 1
	for classes[i].size > c {
		i--
	}
	classes[i].free.Put(b[:0])
}
