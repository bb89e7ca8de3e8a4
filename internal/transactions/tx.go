package transactions

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fanout"
	"repro/internal/mgmt"
	"repro/internal/values"
)

// Transaction error sentinels.
var (
	ErrTxDone = errors.New("transactions: transaction already finished")
	ErrVetoed = errors.New("transactions: a participant vetoed commit")
)

// Decision is a coordinator-log entry: the durable commit/abort verdict
// for one transaction, consulted when recovering in-doubt participants.
type Decision struct {
	TxID      uint64
	Committed bool
}

// Coordinator is the ACID transaction function: it creates transactions
// and drives two-phase commit across their participants, recording every
// decision durably before announcing it (the standard presumed-abort
// discipline: no decision record means abort).
type Coordinator struct {
	mu        sync.Mutex
	nextTx    uint64
	decisions map[uint64]bool
	active    map[uint64]*Tx

	commits uint64
	aborts  uint64

	insp atomic.Pointer[mgmt.TxInstruments]
}

// Instrument attaches management instruments to the coordinator: commit
// spans with per-participant children, and commit/abort/veto metrics.
// Safe to call at any time; nil detaches.
func (c *Coordinator) Instrument(ins *mgmt.TxInstruments) {
	c.insp.Store(ins)
}

// NewCoordinator returns a coordinator with an empty decision log.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		decisions: make(map[uint64]bool),
		active:    make(map[uint64]*Tx),
	}
}

// Begin starts a transaction. The context bounds every lock wait inside
// the transaction.
func (c *Coordinator) Begin(ctx context.Context) *Tx {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextTx++
	t := &Tx{
		id:    c.nextTx,
		ctx:   ctx,
		coord: c,
	}
	t.participants = t.partBuf[:0]
	c.active[t.id] = t
	return t
}

// Decided reports the durable outcome of a transaction: committed, and
// whether any decision exists. Recovery uses it as the decide callback:
//
//	transactions.Recover("bank", log, func(tx uint64) bool {
//		committed, _ := coord.Decided(tx)
//		return committed
//	})
func (c *Coordinator) Decided(txID uint64) (committed, known bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.decisions[txID]
	return v, ok
}

// Stats returns the numbers of committed and aborted transactions.
func (c *Coordinator) Stats() (commits, aborts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commits, c.aborts
}

func (c *Coordinator) finish(t *Tx, committed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.active, t.id)
	if committed {
		c.decisions[t.id] = true
		c.commits++
	} else {
		c.aborts++
	}
}

type txState int

const (
	txActive txState = iota
	txCommitted
	txAborted
)

// Tx is one ACID transaction. It is not safe for concurrent use by
// multiple goroutines (like database transactions generally); run
// concurrent work in separate transactions.
type Tx struct {
	id    uint64
	ctx   context.Context
	coord *Coordinator
	// participants is deduplicated by name. Most transactions touch one or
	// two resources, so it lives in a small inline buffer and a linear scan
	// replaces the map a general registry would use.
	participants []Participant
	partBuf      [4]Participant
	state        txState
}

// ID returns the transaction identifier.
func (t *Tx) ID() uint64 { return t.id }

// enlist registers a participant, replacing any previous one of the same
// name (matching the map semantics this list replaces).
func (t *Tx) enlist(p Participant) {
	name := p.Name()
	for i, q := range t.participants {
		if q.Name() == name {
			t.participants[i] = p
			return
		}
	}
	t.participants = append(t.participants, p)
}

// Enlist adds a participant; stores enlist automatically on first touch.
func (t *Tx) Enlist(p Participant) error {
	if t.state != txActive {
		return ErrTxDone
	}
	t.enlist(p)
	return nil
}

// Read reads a key from a store within the transaction.
func (t *Tx) Read(s *Store, key string) (values.Value, error) {
	if t.state != txActive {
		return values.Value{}, ErrTxDone
	}
	t.enlist(s)
	return s.get(t.ctx, t.id, key)
}

// Write stages a write to a store within the transaction.
func (t *Tx) Write(s *Store, key string, v values.Value) error {
	if t.state != txActive {
		return ErrTxDone
	}
	t.enlist(s)
	return s.put(t.ctx, t.id, key, v)
}

// Delete stages a deletion within the transaction.
func (t *Tx) Delete(s *Store, key string) error {
	if t.state != txActive {
		return ErrTxDone
	}
	t.enlist(s)
	return s.del(t.ctx, t.id, key)
}

// maxCommitFanout bounds the goroutines a single commit or abort spawns;
// wider participant lists are served by this many workers pulling from a
// shared cursor.
const maxCommitFanout = 16

// fanoutParticipants calls fn on every participant concurrently (bounded
// at maxCommitFanout goroutines; a single participant is called inline)
// and returns the index-aligned errors. When stopOnErr is set, a failure
// makes the not-yet-started calls return errSkipped instead of running —
// the first veto cancels the rest of the voting round.
func fanoutParticipants(ps []Participant, stopOnErr bool, fn func(Participant) error) []error {
	errs := make([]error, len(ps))
	if len(ps) == 0 {
		return errs
	}
	if len(ps) == 1 {
		errs[0] = fn(ps[0])
		return errs
	}
	var failed atomic.Bool
	fanout.Do(len(ps), maxCommitFanout, func(i int) {
		if stopOnErr && failed.Load() {
			errs[i] = errSkipped
			return
		}
		if err := fn(ps[i]); err != nil {
			errs[i] = err
			failed.Store(true)
		}
	})
	return errs
}

// errSkipped marks a vote that was never solicited because an earlier
// participant had already vetoed. A skipped participant holds no prepare
// record, so the presumed-abort rollback covers it.
var errSkipped = errors.New("transactions: prepare skipped after veto")

// Commit runs two-phase commit: every participant prepares concurrently
// (forcing its redo log); if all vote yes the decision is logged — exactly
// once, before any participant learns it — and the commits fan out
// concurrently; otherwise everything aborts and ErrVetoed (wrapping the
// first veto) is returned. Concurrency changes only the wall-clock shape
// (max of the participant costs instead of their sum); the log discipline
// is untouched: prepare records are forced before voting yes, the
// decision record is the commit point, and participants that prepared
// recover forward from it.
func (t *Tx) Commit() error {
	if t.state != txActive {
		return ErrTxDone
	}
	ins := t.coord.insp.Load()
	var tr *mgmt.Tracer
	if ins != nil {
		tr = ins.Tracer
	}
	// The commit span parents under whatever trace rides the transaction's
	// context (typically a server dispatch span); each participant's
	// prepare and completion legs are child spans.
	cctx, csp := tr.Start(t.ctx, "tx.commit")
	// Phase 1: voting.
	errs := fanoutParticipants(t.participants, true, func(p Participant) error {
		// Span names are built only when tracing: the concatenation would
		// otherwise allocate on every uninstrumented commit.
		var sp *mgmt.ActiveSpan
		if tr != nil {
			_, sp = tr.Start(cctx, "tx.prepare:"+p.Name())
		}
		err := p.Prepare(t.id)
		sp.Fail(err)
		sp.End()
		return err
	})
	for i, err := range errs {
		if err != nil && !errors.Is(err, errSkipped) {
			if ins != nil {
				ins.Vetoes.Inc()
			}
			t.rollback()
			verr := fmt.Errorf("%w: %s: %v", ErrVetoed, t.participants[i].Name(), err)
			csp.Fail(verr)
			csp.End()
			return verr
		}
	}
	// Decision point: once logged, the transaction IS committed, whatever
	// happens to individual participants afterwards (they hold prepare
	// records and recover forward).
	t.coord.finish(t, true)
	t.state = txCommitted
	if ins != nil {
		ins.Commits.Inc()
	}
	// Phase 2: completion.
	errs = fanoutParticipants(t.participants, false, func(p Participant) error {
		var sp *mgmt.ActiveSpan
		if tr != nil {
			_, sp = tr.Start(cctx, "tx.complete:"+p.Name())
		}
		err := p.Commit(t.id)
		sp.Fail(err)
		sp.End()
		return err
	})
	var after error
	for i, err := range errs {
		if err != nil {
			after = fmt.Errorf("transactions: participant %s failed after decision: %w", t.participants[i].Name(), err)
			break
		}
	}
	csp.Fail(after)
	d := csp.End()
	if ins != nil {
		ins.CommitLatency.ObserveDuration(d)
	}
	return after
}

// Abort rolls the transaction back everywhere.
func (t *Tx) Abort() error {
	if t.state != txActive {
		return ErrTxDone
	}
	t.rollback()
	return nil
}

func (t *Tx) rollback() {
	if ins := t.coord.insp.Load(); ins != nil {
		ins.Aborts.Inc()
	}
	// Aborts fan out concurrently too: rollback latency also tracks the
	// slowest participant, not the sum. Abort is idempotent and aborting a
	// participant that never prepared is a no-op (presumed abort), so no
	// ordering is required.
	fanoutParticipants(t.participants, false, func(p Participant) error {
		return p.Abort(t.id)
	})
	t.coord.finish(t, false)
	t.state = txAborted
}

// Atomically runs fn inside a transaction, committing on nil and aborting
// on error; deadlock aborts are retried up to 10 times with fresh
// transactions, which is the standard application-level response to
// ErrDeadlock. Retries are paced by a jittered exponential backoff:
// without it the loser of a shared→exclusive upgrade restarts in
// lockstep with the winner's next transaction and collides again.
func (c *Coordinator) Atomically(ctx context.Context, fn func(tx *Tx) error) error {
	const maxAttempts = 10
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if err := deadlockBackoff(ctx, attempt); err != nil {
				return err
			}
		}
		tx := c.Begin(ctx)
		err := fn(tx)
		if err == nil {
			return tx.Commit()
		}
		_ = tx.Abort()
		if !errors.Is(err, ErrDeadlock) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("transactions: giving up after %d deadlock retries: %w", maxAttempts, lastErr)
}

// deadlockBackoff sleeps before retry number attempt (1-based): a
// uniformly random delay below 50µs·2^attempt, capped at 5ms, so two
// transactions that killed each other restart at different times. It
// returns early with the context's error when ctx ends.
func deadlockBackoff(ctx context.Context, attempt int) error {
	const (
		base    = 50 * time.Microsecond
		ceiling = 5 * time.Millisecond
	)
	limit := base << attempt
	if limit > ceiling {
		limit = ceiling
	}
	t := time.NewTimer(time.Duration(rand.Int64N(int64(limit))) + 1)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
