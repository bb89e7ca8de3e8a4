// Package fanout is the one bounded worker pool behind every fan-out in
// the tree: a replica group's update legs, a trader's federation links, a
// sharded import's shard legs, a commit's participants.
package fanout

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
)

// The bounds of the idle workers. A worker that has finished its part of a
// fan-out parks for the next one; past maxParked parked workers it exits
// instead, and a parked worker that no fan-out takes within parkedFor
// exits too, so a process that stops fanning out is left with none well
// within the 5 s a goroutine leak check waits.
const (
	maxParked = 32
	parkedFor = time.Second
)

var (
	// handoff is unbuffered, so a send succeeds only into a worker parked
	// on it.
	handoff = make(chan *pool)
	parked  atomic.Int32 // workers on their way to handoff or on it

	// pools keeps up to 8 idle pools: enough for 8 fan-outs at once, past
	// which a fan-out allocates its pool, and what waits stays under
	// 8 × 48 B.
	pools = make(bufpool.List[*pool], 8)
)

// Do calls fn(i) once for every i in [0, n) on at most limit goroutines,
// which pull indices from a shared cursor, and returns when every call
// has. The calling goroutine is one of the workers; each of the others is
// a worker parked by an earlier fan-out when one is waiting, and a new
// goroutine only when none is, so the caller never blocks on handing a
// leg out, and a Do inside fn cannot deadlock. fn is kept in a pool the
// workers share, so it escapes to the heap: a caller that builds fn once
// allocates nothing per fan-out once the workers are parked.
func Do(n, limit int, fn func(i int)) {
	p := pools.Get(func() *pool { return new(pool) })
	p.n, p.fn = n, fn
	for w := 1; w < min(n, limit); w++ {
		p.wg.Add(1)
		select {
		case handoff <- p:
		default:
			go worker(p)
		}
	}
	p.work()
	p.wg.Wait()
	// Every worker is done with p, so it is cleared and kept: it holds no
	// fn, and so nothing fn captured, while it waits to be reused.
	p.cursor.Store(0)
	p.fn = nil
	pools.Put(p)
}

// worker does its part of p's fan-out, then parks for the next one until
// it has waited parkedFor, or exits at once when maxParked are parked.
func worker(p *pool) {
	idle := time.NewTimer(parkedFor)
	defer idle.Stop()
	for {
		p.work()
		p.wg.Done() // p is the caller's again
		if parked.Add(1) > maxParked {
			parked.Add(-1)
			return
		}
		// go.mod's go 1.22 keeps the timer channel of before Go 1.23: a
		// timer that fired while the worker ran keeps its tick in idle.C,
		// so Stop's false answer is drained before Reset.
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(parkedFor)
		select {
		case p = <-handoff:
			parked.Add(-1)
		case <-idle.C:
			parked.Add(-1)
			return
		}
	}
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
