// Package transactions implements the ODP transaction function of
// Section 8.2.1 of the tutorial.
//
// RM-ODP defines a "very generalised" transaction function characterised
// by three degrees of coordination — visibility (are intermediate effects
// visible to others?), recoverability (what state holds after a failed
// operation?) and permanence (can failure disturb completed operations?) —
// and then, because "the ACID transaction model will be the only style of
// transaction mechanism supported by most ODP systems for a number of
// years", prescribes an ACID transaction function as its specialisation.
// That specialisation is what this package builds:
//
//   - visibility: strict two-phase locking with shared/exclusive modes and
//     waits-for deadlock detection (this file) — no intermediate effect is
//     visible before commit;
//   - recoverability: deferred write sets — an aborted transaction's
//     effects are simply discarded;
//   - permanence: a write-ahead redo log per store, replayed by Recover,
//     with prepared-but-undecided transactions resolved against the
//     coordinator's decision log;
//   - atomicity across stores: a two-phase commit coordinator.
package transactions

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bufpool"
)

// ErrDeadlock is returned when granting a lock would close a waits-for
// cycle; the requesting transaction should abort and retry.
var ErrDeadlock = errors.New("transactions: deadlock detected")

// lockMode is shared (readers) or exclusive (writers).
type lockMode int

const (
	lockShared lockMode = iota + 1
	lockExclusive
)

type waitReq struct {
	tx      uint64
	mode    lockMode
	ready   chan struct{}
	granted bool
}

type lockEntry struct {
	holders map[uint64]lockMode
	queue   []*waitReq
}

// lockManager implements strict two-phase locking over string keys with
// upgrade support and waits-for-graph deadlock detection. Locks are held
// until releaseAll at commit or abort time (strictness).
type lockManager struct {
	mu    sync.Mutex
	locks map[string]*lockEntry
	// waits[a] is the set of transactions a is currently waiting on.
	waits map[uint64]map[uint64]struct{}
	// free keeps up to 64 idle lock entries: strict 2PL creates and
	// destroys an entry per key per transaction lifetime, so reuse (keeping
	// the holders map's buckets) makes acquire/release allocation-free in
	// steady state while at most 64 keys are locked and released together.
	free bufpool.List[*lockEntry]
}

func newLockManager() *lockManager {
	return &lockManager{
		locks: make(map[string]*lockEntry),
		waits: make(map[uint64]map[uint64]struct{}),
		free:  make(bufpool.List[*lockEntry], 64),
	}
}

// acquire blocks until tx holds the key in the given mode, upgrading a
// shared lock in place when possible. It fails with ErrDeadlock when
// waiting would close a cycle in the waits-for graph, and with ctx.Err()
// when the context expires first.
func (lm *lockManager) acquire(ctx context.Context, tx uint64, key string, mode lockMode) error {
	lm.mu.Lock()
	e, ok := lm.locks[key]
	if !ok {
		e = lm.free.Get(func() *lockEntry { return &lockEntry{holders: make(map[uint64]lockMode)} })
		lm.locks[key] = e
	}
	if lm.grantable(e, tx, mode) {
		e.holders[tx] = maxMode(e.holders[tx], mode)
		lm.mu.Unlock()
		return nil
	}
	// Would wait: record edges and check for a cycle.
	blockers := lm.blockers(e, tx)
	edges, ok := lm.waits[tx]
	if !ok {
		edges = make(map[uint64]struct{})
		lm.waits[tx] = edges
	}
	for _, b := range blockers {
		edges[b] = struct{}{}
	}
	if lm.cycleFrom(tx, tx, make(map[uint64]bool)) {
		for _, b := range blockers {
			delete(edges, b)
		}
		if len(edges) == 0 {
			delete(lm.waits, tx)
		}
		lm.mu.Unlock()
		return fmt.Errorf("%w: tx %d on key %q", ErrDeadlock, tx, key)
	}
	req := &waitReq{tx: tx, mode: mode, ready: make(chan struct{})}
	e.queue = append(e.queue, req)
	lm.mu.Unlock()

	select {
	case <-req.ready:
		return nil
	case <-ctx.Done():
		lm.mu.Lock()
		if req.granted {
			// Granted concurrently with expiry: keep the lock; the
			// transaction will release it at its end.
			lm.mu.Unlock()
			return nil
		}
		for i, q := range e.queue {
			if q == req {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				break
			}
		}
		delete(lm.waits, tx)
		lm.grantQueued(e) // what queued behind it may now be grantable
		lm.mu.Unlock()
		return ctx.Err()
	}
}

// grantable reports whether tx can take key in mode right now.
func (lm *lockManager) grantable(e *lockEntry, tx uint64, mode lockMode) bool {
	held, isHolder := e.holders[tx]
	if isHolder && held >= mode {
		return true // already strong enough
	}
	switch mode {
	case lockShared:
		// Grantable if no other exclusive holder and no queued writer
		// (queue priority prevents writer starvation).
		for other, m := range e.holders {
			if other != tx && m == lockExclusive {
				return false
			}
		}
		for _, q := range e.queue {
			if q.mode == lockExclusive && q.tx != tx {
				return false
			}
		}
		return true
	case lockExclusive:
		// Grantable if tx is the only holder (upgrade) or there are none.
		for other := range e.holders {
			if other != tx {
				return false
			}
		}
		return true
	}
	return false
}

// blockers lists the transactions tx would wait on.
func (lm *lockManager) blockers(e *lockEntry, tx uint64) []uint64 {
	var out []uint64
	for other := range e.holders {
		if other != tx {
			out = append(out, other)
		}
	}
	for _, q := range e.queue {
		if q.tx != tx && q.mode == lockExclusive {
			out = append(out, q.tx)
		}
	}
	return out
}

// cycleFrom reports whether target is reachable from cur via waits edges.
func (lm *lockManager) cycleFrom(cur, target uint64, seen map[uint64]bool) bool {
	for next := range lm.waits[cur] {
		if next == target {
			return true
		}
		if seen[next] {
			continue
		}
		seen[next] = true
		if lm.cycleFrom(next, target, seen) {
			return true
		}
	}
	return false
}

// releaseAll drops every lock held or awaited by tx and grants whatever
// became available.
func (lm *lockManager) releaseAll(tx uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	delete(lm.waits, tx)
	for key, e := range lm.locks {
		delete(e.holders, tx)
		for i := 0; i < len(e.queue); {
			if e.queue[i].tx == tx {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				continue
			}
			i++
		}
		lm.grantQueued(e)
		if len(e.holders) == 0 && len(e.queue) == 0 {
			delete(lm.locks, key)
			lm.free.Put(e) // empty already: no holder, no waiter
		}
	}
}

// grantQueued grants queued requests in FIFO order while they remain
// compatible.
func (lm *lockManager) grantQueued(e *lockEntry) {
	for len(e.queue) > 0 {
		req := e.queue[0]
		if !lm.grantableQueued(e, req) {
			return
		}
		e.queue = e.queue[1:]
		e.holders[req.tx] = maxMode(e.holders[req.tx], req.mode)
		delete(lm.waits, req.tx)
		req.granted = true
		close(req.ready)
	}
}

// grantableQueued is grantable without the queue-priority rule (the
// request at the head of the queue IS the priority).
func (lm *lockManager) grantableQueued(e *lockEntry, req *waitReq) bool {
	switch req.mode {
	case lockShared:
		for other, m := range e.holders {
			if other != req.tx && m == lockExclusive {
				return false
			}
		}
		return true
	case lockExclusive:
		for other := range e.holders {
			if other != req.tx {
				return false
			}
		}
		return true
	}
	return false
}

func maxMode(a, b lockMode) lockMode {
	if a > b {
		return a
	}
	return b
}

// heldKeys returns the number of keys tx currently holds (for tests).
func (lm *lockManager) heldKeys(tx uint64) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	n := 0
	for _, e := range lm.locks {
		if _, ok := e.holders[tx]; ok {
			n++
		}
	}
	return n
}
