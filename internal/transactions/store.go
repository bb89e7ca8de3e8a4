package transactions

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/values"
)

// Store error sentinels.
var (
	ErrNotFound    = errors.New("transactions: key not found")
	ErrNotPrepared = errors.New("transactions: commit without prepare")
)

// Participant is one party in a two-phase commit: it votes in Prepare and
// then obeys the coordinator's Commit or Abort decision. *Store implements
// it; so could any other transactional resource.
type Participant interface {
	Name() string
	Prepare(txID uint64) (Vote, error)
	Commit(txID uint64) error
	Abort(txID uint64) error
}

// Vote is a participant's answer in the voting phase; an error is the veto.
type Vote int

const (
	// VoteCommit: the participant forced a prepare record, holds its locks
	// and awaits the decision.
	VoteCommit Vote = iota
	// VoteReadOnly: the transaction changed nothing here. The participant
	// has released everything, logged nothing, and hears no more of it.
	VoteReadOnly
)

// Store is a transactional key/value resource holding values. Reads take
// shared locks, writes exclusive locks (strict 2PL); updates are deferred
// into a per-transaction write set and applied at commit, after a forced
// prepare record makes them durable.
type Store struct {
	name   string
	lm     *lockManager
	log    *Log
	forced *FileLog // non-nil when the WAL is file-backed

	mu        sync.Mutex
	committed map[string]values.Value
	// writeSets holds each transaction's staged ops, one per key, sorted
	// by key as every record carries them. A transaction writes a handful
	// of keys, so a slice replaces the map a general write set would use.
	writeSets map[uint64][]WriteOp
	prepared  map[uint64]bool
	wsFree    [][]WriteOp // finished write sets, emptied, for reuse
}

var _ Participant = (*Store)(nil)

// NewStore creates a store writing its WAL to log (a fresh log if nil).
func NewStore(name string, log *Log) *Store {
	if log == nil {
		log = NewLog()
	}
	return &Store{
		name:      name,
		lm:        newLockManager(),
		log:       log,
		committed: make(map[string]values.Value),
		writeSets: make(map[uint64][]WriteOp),
		prepared:  make(map[uint64]bool),
	}
}

// Name returns the store's name.
func (s *Store) Name() string { return s.name }

// Log exposes the store's write-ahead log (for Recover).
func (s *Store) Log() *Log { return s.log }

// get reads a key under a shared lock, seeing the transaction's own
// pending writes first.
func (s *Store) get(ctx context.Context, txID uint64, key string) (values.Value, error) {
	if err := s.lm.acquire(ctx, txID, key, lockShared); err != nil {
		return values.Value{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.committed[key]
	ws := s.writeSets[txID]
	for i := range ws {
		if ws[i].Key == key {
			v, ok = ws[i].Value, true
			break
		}
	}
	if !ok {
		return values.Value{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return v, nil
}

// put stages a write under an exclusive lock, as the transaction's latest
// word on its key.
func (s *Store) put(ctx context.Context, txID uint64, key string, v values.Value) error {
	if err := s.lm.acquire(ctx, txID, key, lockExclusive); err != nil {
		return err
	}
	op := WriteOp{Key: key, Value: v}
	s.mu.Lock()
	defer s.mu.Unlock()
	ws, ok := s.writeSets[txID]
	if n := len(s.wsFree); !ok && n > 0 {
		ws, s.wsFree = s.wsFree[n-1], s.wsFree[:n-1]
	}
	i, found := slices.BinarySearchFunc(ws, op.Key, func(w WriteOp, key string) int { return strings.Compare(w.Key, key) })
	if found {
		ws[i] = op
	} else {
		s.writeSets[txID] = slices.Insert(ws, i, op)
	}
	return nil
}

// dropWriteSet forgets a finished transaction's write set, emptying it
// for reuse. Callers hold s.mu.
func (s *Store) dropWriteSet(txID uint64) {
	ws := s.writeSets[txID]
	delete(s.writeSets, txID)
	if ws != nil && len(s.wsFree) < 16 {
		clear(ws)
		s.wsFree = append(s.wsFree, ws[:0])
	}
}

// Prepare forces the transaction's write set to the log and votes to
// commit. A transaction that wrote nothing here — it only read, or
// never touched this store — votes read-only instead: all its work is done
// by the time it commits, so its locks are released at the vote and it
// leaves no record.
func (s *Store) Prepare(txID uint64) (Vote, error) {
	s.mu.Lock()
	ws := s.writeSets[txID]
	if len(ws) == 0 {
		s.mu.Unlock()
		s.lm.releaseAll(txID)
		return VoteReadOnly, nil
	}
	defer s.mu.Unlock()
	if s.prepared[txID] {
		return VoteCommit, nil // idempotent
	}
	if err := s.appendLog(Record{Kind: RecPrepare, TxID: txID, Writes: ws}); err != nil {
		return VoteCommit, err
	}
	s.prepared[txID] = true
	return VoteCommit, nil
}

// commitOnePhase commits a transaction this store is the only participant
// of. With no one else to vote, one forced commit record carrying the
// write set is both its prepare and its outcome; a transaction that wrote
// nothing here logs nothing. On an error the transaction is still active
// here, for the coordinator to abort.
func (s *Store) commitOnePhase(txID uint64) error {
	s.mu.Lock()
	if ws := s.writeSets[txID]; len(ws) > 0 {
		if err := s.appendLog(Record{Kind: RecCommit, TxID: txID, Writes: ws}); err != nil {
			s.mu.Unlock()
			return err
		}
		s.apply(ws)
		s.dropWriteSet(txID)
	}
	s.mu.Unlock()
	s.lm.releaseAll(txID)
	return nil
}

// minLogRecords is the fewest records at which appendLog checkpoints the
// in-memory log. The bound is max(minLogRecords, 2 × (committed keys +
// prepared transactions)), so a checkpoint is paid for by at least as many
// appends as it writes operations and records.
const minLogRecords = 1024

// logBound is the most records a store's in-memory log holds.
func logBound(keys, prepared int) int {
	return max(minLogRecords, 2*(keys+prepared))
}

// appendLog forces the record to stable storage when the WAL is
// file-backed, and always mirrors it in memory. Once the in-memory log
// holds logBound records it is first truncated to a checkpoint of the
// committed state plus the prepare records of the transactions still
// prepared — before the record is appended, so a commit record always
// follows the prepare record it completes. Callers hold s.mu.
func (s *Store) appendLog(r Record) error {
	if s.log.Len() >= logBound(len(s.committed), len(s.prepared)) {
		s.log.checkpoint(s.committed, s.prepared)
	}
	if s.forced != nil {
		return s.forced.Append(r) // mirrors into s.log
	}
	s.log.Append(r)
	return nil
}

// Commit applies the prepared write set and releases the locks.
func (s *Store) Commit(txID uint64) error {
	s.mu.Lock()
	if !s.prepared[txID] {
		s.mu.Unlock()
		return fmt.Errorf("%w: tx %d at %s", ErrNotPrepared, txID, s.name)
	}
	if err := s.appendLog(Record{Kind: RecCommit, TxID: txID}); err != nil {
		s.mu.Unlock()
		return err
	}
	s.apply(s.writeSets[txID])
	s.dropWriteSet(txID)
	delete(s.prepared, txID)
	s.mu.Unlock()
	s.lm.releaseAll(txID)
	return nil
}

// apply makes a write set committed state. Callers hold s.mu or own s.
func (s *Store) apply(ws []WriteOp) {
	for _, op := range ws {
		s.committed[op.Key] = op.Value
	}
}

// Abort discards the write set and releases the locks. Aborting a
// transaction the store has never seen is a no-op. Only a prepared
// transaction leaves an abort record: without a prepare record recovery
// presumes the abort anyway.
func (s *Store) Abort(txID uint64) error {
	s.mu.Lock()
	if s.prepared[txID] {
		_ = s.appendLog(Record{Kind: RecAbort, TxID: txID}) // abort is presumed anyway
	}
	s.dropWriteSet(txID)
	delete(s.prepared, txID)
	s.mu.Unlock()
	s.lm.releaseAll(txID)
	return nil
}

// Snapshot returns a copy of the committed state (non-transactional read,
// for tests and tooling).
func (s *Store) Snapshot() map[string]values.Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]values.Value, len(s.committed))
	for k, v := range s.committed {
		out[k] = v
	}
	return out
}

// InDoubt lists transactions that prepared at this store but have no
// recorded outcome — after a crash these must be resolved against the
// coordinator's decision log. A checkpoint settles every transaction
// before it; the prepare records after it name those still in doubt.
func InDoubt(log *Log) []uint64 {
	state := map[uint64]RecordKind{}
	for _, r := range log.Records() {
		if r.Kind == RecCheckpoint {
			clear(state)
			continue
		}
		state[r.TxID] = r.Kind
	}
	var out []uint64
	for tx, k := range state {
		if k == RecPrepare {
			out = append(out, tx)
		}
	}
	slices.Sort(out)
	return out
}

// Recover rebuilds a store from its write-ahead log: the committed state
// is exactly the checkpoint's, if the log holds one, with the write sets of
// the transactions committed after it redone, from their prepare records
// or, committed in one phase, their commit records. In-doubt transactions
// (prepared, no outcome) are resolved by the decide callback — normally a
// lookup in the coordinator's decision log; deciding false aborts them.
// The recovered store owns log from then on.
func Recover(name string, log *Log, decide func(txID uint64) bool) *Store {
	return recoverInto(name, log, decide, nil)
}

func recoverInto(name string, log *Log, decide func(txID uint64) bool, forced *FileLog) *Store {
	s := NewStore(name, log)
	s.forced = forced
	for _, r := range log.Records() {
		switch r.Kind {
		case RecCheckpoint:
			clear(s.committed)
			clear(s.writeSets)
			s.apply(r.Writes)
		case RecPrepare:
			s.writeSets[r.TxID] = r.Writes
		case RecCommit:
			s.apply(s.writeSets[r.TxID])
			s.apply(r.Writes) // a one-phase commit's; none after a prepare
			delete(s.writeSets, r.TxID)
		case RecAbort:
			delete(s.writeSets, r.TxID)
		}
	}
	// What is left is in doubt: prepared here, as its record says. Resolve
	// it, deterministically ordered, through Commit and Abort, which log the
	// outcome as any other does.
	inDoubt := make([]uint64, 0, len(s.writeSets))
	for tx := range s.writeSets {
		s.prepared[tx] = true
		inDoubt = append(inDoubt, tx)
	}
	slices.Sort(inDoubt)
	// Abort always succeeds; a commit whose record cannot be forced stays
	// prepared, in doubt again at the next recovery.
	for _, tx := range inDoubt {
		if decide != nil && decide(tx) {
			_ = s.Commit(tx)
		} else {
			_ = s.Abort(tx)
		}
	}
	return s
}
