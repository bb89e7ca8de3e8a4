// Package fanout is the one bounded worker pool behind every fan-out in
// the tree: a replica group's update legs, a trader's federation links, a
// sharded import's shard legs, a commit's participants.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Do calls fn(i) once for every i in [0, n) on at most limit goroutines,
// which pull indices from a shared cursor, and returns when every call
// has. The calling goroutine is one of the workers, so a fan-out of
// width w spawns only w-1 goroutines. fn escapes to the heap: a caller
// that cares about the allocation handles n == 1 itself before building
// the closure.
func Do(n, limit int, fn func(i int)) {
	// One allocation holds everything the workers share.
	p := &pool{n: n, fn: fn}
	for w := 1; w < min(n, limit); w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work()
		}()
	}
	p.work()
	p.wg.Wait()
}

type pool struct {
	cursor atomic.Int64
	wg     sync.WaitGroup
	n      int
	fn     func(i int)
}

func (p *pool) work() {
	for {
		i := int(p.cursor.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.fn(i)
	}
}
