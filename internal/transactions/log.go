package transactions

import (
	"errors"
	"slices"
	"strings"
	"sync"

	"repro/internal/values"
)

// ErrBadLog is returned when replaying a corrupt log.
var ErrBadLog = errors.New("transactions: malformed log")

// RecordKind classifies write-ahead-log records.
type RecordKind int

// The log record kinds. A store's log carries Prepare (with the redo
// write set), Commit (with the write set too when the store committed the
// transaction in one phase, unprepared) and Abort records, and at most one
// Checkpoint, first:
// the store's committed state, as a key-sorted write set, at the moment the
// log was truncated. The coordinator's decision log carries Commit/Abort
// decisions only.
const (
	RecPrepare RecordKind = iota + 1
	RecCommit
	RecAbort
	RecCheckpoint
)

// String returns the record kind's name.
func (k RecordKind) String() string {
	switch k {
	case RecPrepare:
		return "prepare"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecCheckpoint:
		return "checkpoint"
	}
	return "unknown"
}

// WriteOp is one redo operation in a record.
type WriteOp struct {
	Key    string
	Value  values.Value
	Delete bool
}

// Record is one write-ahead-log entry.
type Record struct {
	Kind   RecordKind
	TxID   uint64
	Writes []WriteOp // RecPrepare, RecCheckpoint and a one-phase RecCommit only
}

// Log is an append-only record log. The in-memory implementation stands
// in for stable storage: it deliberately lives outside the Store so a
// "crashed" store can be reconstructed from it (see Recover), which is
// exactly the permanence property the transaction function requires.
//
// A Log belongs to one Store. The store keeps it bounded: once it holds
// enough records, the store rewrites it as a checkpoint of its committed
// state followed by the prepare records of the transactions still
// awaiting their outcome, so what Recover replays is a checkpoint plus the
// log's tail, never the whole history.
type Log struct {
	mu   sync.Mutex
	recs []Record
	// arena holds every record's write set, back to back in record order.
	// Append copies into it and a checkpoint rewrites it in place, so in
	// steady state neither allocates.
	arena []WriteOp
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append appends a record. It models a forced (synchronous) log write:
// when Append returns, the record is durable.
func (l *Log) Append(r Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Copy the write set so later mutation cannot corrupt history.
	n := len(l.arena)
	l.arena = append(l.arena, r.Writes...)
	r.Writes = l.arena[n:len(l.arena):len(l.arena)]
	l.recs = append(l.recs, r)
}

// Records returns a copy of the log contents, write sets included: nothing
// a caller does to it reaches the log.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := slices.Clone(l.recs)
	ops := slices.Clone(l.arena)
	for i := range out {
		n := len(out[i].Writes)
		out[i].Writes, ops = ops[:n:n], ops[n:]
	}
	return out
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// checkpoint truncates the log to one RecCheckpoint record of state,
// sorted by key, followed by the prepare records of the transactions in
// keep, in their original order. It reuses the record slice and the arena.
func (l *Log) checkpoint(state map[string]values.Value, keep map[uint64]bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The kept write sets are first copied past the end of both the old
	// contents and the checkpoint, where neither overwrites them, and their
	// records moved to the front of recs.
	used, k := len(l.arena), len(state)
	at := max(used, k)
	l.arena = slices.Grow(l.arena, at-used)[:at]
	kept := 0
	for _, r := range l.recs {
		if r.Kind == RecPrepare && keep[r.TxID] {
			l.arena = append(l.arena, r.Writes...)
			l.recs[kept] = r
			kept++
		}
	}
	moved := len(l.arena) - at
	ckpt := l.arena[:0]
	for key, v := range state {
		ckpt = append(ckpt, WriteOp{Key: key, Value: v})
	}
	slices.SortFunc(ckpt, func(a, b WriteOp) int { return strings.Compare(a.Key, b.Key) })
	copy(l.arena[k:], l.arena[at:])
	clear(l.arena[k+moved:])
	l.arena = l.arena[:k+moved]
	// Shift the kept records up one to make room for the checkpoint, and
	// point them at their write sets' new place.
	clear(l.recs[kept:])
	l.recs = append(l.recs[:kept], Record{})
	copy(l.recs[1:], l.recs[:kept])
	l.recs[0] = Record{Kind: RecCheckpoint, Writes: l.arena[:k:k]}
	off := k
	for i := 1; i <= kept; i++ {
		w := len(l.recs[i].Writes)
		l.recs[i].Writes = l.arena[off : off+w : off+w]
		off += w
	}
}
