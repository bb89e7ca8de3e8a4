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
// and drives presumed-abort two-phase commit across their participants,
// recording a commit decision before any participant learns it and
// forgetting it once every participant has acknowledged it; no decision
// means abort. A transaction that wrote nowhere, or that a lone store
// commits in one phase, records none.
type Coordinator struct {
	mu        sync.Mutex
	nextTx    uint64
	decisions map[uint64]bool
	free      []*Tx // finished Atomically transactions, zeroed, for reuse

	commits uint64
	aborts  uint64

	insp atomic.Pointer[mgmt.TxInstruments]
}

// Instrument attaches management instruments to the coordinator: commit
// spans with per-participant children, veto and commit-latency metrics.
// Safe to call at any time; nil detaches.
func (c *Coordinator) Instrument(ins *mgmt.TxInstruments) {
	c.insp.Store(ins)
}

// NewCoordinator returns a coordinator with an empty decision log.
func NewCoordinator() *Coordinator {
	return &Coordinator{decisions: make(map[uint64]bool)}
}

// Begin starts a transaction. The context bounds every lock wait inside
// the transaction.
func (c *Coordinator) Begin(ctx context.Context) *Tx {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextTx++
	var t *Tx
	if n := len(c.free); n > 0 {
		t, c.free = c.free[n-1], c.free[:n-1]
	} else {
		t = new(Tx)
	}
	t.id, t.coord, t.active = c.nextTx, c, true
	t.amb = ambient{Context: ctx, tx: t}
	t.participants = t.partBuf[:0]
	return t
}

// recycle zeroes a finished transaction — so it answers ErrTxDone and
// keeps no caller context alive — and keeps it for a later Begin.
func (c *Coordinator) recycle(t *Tx) {
	*t = Tx{amb: ambient{Context: context.Background()}}
	c.mu.Lock()
	if len(c.free) < 64 {
		c.free = append(c.free, t)
	}
	c.mu.Unlock()
}

// Decided reports the recorded outcome of a transaction: committed, and
// whether any decision exists. Unknown means aborted, or committed and
// acknowledged by every participant, which then reads "committed" from its
// own log. Recovery uses it as the decide callback:
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

// finish counts the outcome and, for a commit some participant holds a
// prepare record for (decide), records the decision until forget.
func (c *Coordinator) finish(txID uint64, committed, decide bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if decide {
		c.decisions[txID] = true
	}
	if committed {
		c.commits++
	} else {
		c.aborts++
	}
}

// forget drops a decision every participant has acknowledged.
func (c *Coordinator) forget(txID uint64) {
	c.mu.Lock()
	delete(c.decisions, txID)
	c.mu.Unlock()
}

// Tx is one ACID transaction. It is not safe for concurrent use by
// multiple goroutines (like database transactions generally); run
// concurrent work in separate transactions.
type Tx struct {
	id    uint64
	amb   ambient // the caller's context, bounding every lock wait, plus t itself
	coord *Coordinator
	// participants is deduplicated by name. Most transactions touch one or
	// two resources, so it lives in a small inline buffer and a linear scan
	// replaces the map a general registry would use. Commit nils the entry
	// of a participant that is finished (see call).
	participants []Participant
	partBuf      [4]Participant
	active       bool // false once finished, and in a recycled Tx
}

// ambient is the transaction as a context value: allocated with the Tx,
// so handing a servant its transaction costs no context.WithValue node.
type ambient struct {
	context.Context
	tx *Tx
}

func (a *ambient) Value(key any) any {
	if k, ok := key.(*Tx); ok && k == nil && a.tx != nil { // nil once recycled
		return a.tx
	}
	return a.Context.Value(key)
}

// ID returns the transaction identifier.
func (t *Tx) ID() uint64 { return t.id }

// Context returns the context the transaction began under with the
// transaction itself as its value for the key (*Tx)(nil).
func (t *Tx) Context() context.Context { return &t.amb }

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
	if !t.active {
		return ErrTxDone
	}
	t.enlist(p)
	return nil
}

// Read reads a key from a store within the transaction.
func (t *Tx) Read(s *Store, key string) (values.Value, error) {
	if !t.active {
		return values.Value{}, ErrTxDone
	}
	t.enlist(s)
	return s.get(t.amb.Context, t.id, key)
}

// Write stages a write to a store within the transaction.
func (t *Tx) Write(s *Store, key string, v values.Value) error {
	if !t.active {
		return ErrTxDone
	}
	t.enlist(s)
	return s.put(t.amb.Context, t.id, key, v)
}

// maxCommitFanout bounds the goroutines a single commit or abort spawns;
// wider participant lists are served by this many workers pulling from a
// shared cursor.
const maxCommitFanout = 16

// errSkipped marks a vote that was never solicited because an earlier
// participant had already vetoed. A skipped participant holds no prepare
// record, so the presumed-abort rollback covers it.
var errSkipped = errors.New("transactions: prepare skipped after veto")

// leg is one round of calls on the participants.
type leg int

const (
	legPrepare leg = iota
	legComplete
	legOnePhase
	legAbort
)

// legSpan is each traced leg's span-name prefix.
var legSpan = [...]string{legPrepare: "tx.prepare:", legComplete: "tx.complete:", legOnePhase: "tx.complete:"}

// call runs one participant's part of a round under its span (a child of
// the commit span riding cctx). A read-only vote or a one-phase commit
// finishes the participant: its entry is cleared and the later rounds pass
// over it.
func (t *Tx) call(l leg, cctx context.Context, tr *mgmt.Tracer, i int) (err error) {
	p := t.participants[i]
	if p == nil {
		return nil
	}
	// Span names are built only when tracing: the concatenation would
	// otherwise allocate on every uninstrumented commit.
	var sp *mgmt.ActiveSpan
	if tr != nil && l != legAbort {
		_, sp = tr.Start(cctx, legSpan[l]+p.Name())
	}
	switch l {
	case legPrepare:
		var v Vote
		if v, err = p.Prepare(t.id); err == nil && v == VoteReadOnly {
			t.participants[i] = nil
		}
	case legComplete:
		err = p.Commit(t.id)
	case legOnePhase:
		if err = p.(*Store).commitOnePhase(t.id); err == nil {
			t.participants[i] = nil
		}
	case legAbort:
		err = p.Abort(t.id)
	}
	sp.Fail(err)
	sp.End()
	return err
}

// round runs one leg on every participant — a lone one inline, two or
// more concurrently on at most maxCommitFanout goroutines — and returns
// the first failure in participant order with its index. In the voting
// round a failure makes the not-yet-started calls skip instead of running:
// the first veto cancels the rest of the vote.
func (t *Tx) round(l leg, cctx context.Context, tr *mgmt.Tracer) (int, error) {
	switch len(t.participants) {
	case 0:
		return 0, nil
	case 1:
		return 0, t.call(l, cctx, tr, 0)
	}
	errs := make([]error, len(t.participants))
	var failed atomic.Bool
	fanout.Do(len(errs), maxCommitFanout, func(i int) {
		if l == legPrepare && failed.Load() {
			errs[i] = errSkipped
			return
		}
		if errs[i] = t.call(l, cctx, tr, i); errs[i] != nil {
			failed.Store(true)
		}
	})
	for i, err := range errs {
		if err != nil && !errors.Is(err, errSkipped) {
			return i, err
		}
	}
	return 0, nil
}

// Commit runs two-phase commit: every participant prepares concurrently
// (forcing its redo log); if all vote yes the decision is logged — exactly
// once, before any participant learns it — and the commits fan out
// concurrently; otherwise everything aborts and ErrVetoed (wrapping the
// first veto) is returned. Concurrency changes only the wall-clock shape
// (max of the participant costs instead of their sum); the log discipline
// is untouched: prepare records are forced before voting yes, the
// decision record is the commit point, and participants that prepared
// recover forward from it. A participant that votes read-only is finished
// at its vote and sits out the second phase (the read-only optimisation
// of presumed-abort 2PC); when all do, there is no decision to log. The
// decision is forgotten once every completion leg returns nil; a failed
// leg keeps it for its participant's recovery. A lone store skips the
// vote: its forced commit record is the commit point, with no decision,
// and a record it cannot force is its veto.
func (t *Tx) Commit() error {
	if !t.active {
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
	cctx, csp := tr.Start(t.amb.Context, "tx.commit")
	// Phase 1: voting, or a lone store's whole commit (a participant that
	// wraps a store votes).
	first := legPrepare
	if len(t.participants) == 1 {
		if _, ok := t.participants[0].(*Store); ok {
			first = legOnePhase
		}
	}
	if i, err := t.round(first, cctx, tr); err != nil {
		if ins != nil {
			ins.Vetoes.Inc()
		}
		t.rollback()
		verr := fmt.Errorf("%w: %s: %v", ErrVetoed, t.participants[i].Name(), err)
		csp.Fail(verr)
		csp.End()
		return verr
	}
	// Decision point: once logged, the transaction IS committed, whatever
	// happens to individual participants afterwards (they hold prepare
	// records and recover forward).
	wrote := false
	for _, p := range t.participants {
		wrote = wrote || p != nil
	}
	t.coord.finish(t.id, true, wrote)
	t.active = false
	// Phase 2: completion.
	var after error
	if i, err := t.round(legComplete, cctx, tr); err != nil {
		after = fmt.Errorf("transactions: participant %s failed after decision: %w", t.participants[i].Name(), err)
	} else if wrote {
		t.coord.forget(t.id)
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
	if !t.active {
		return ErrTxDone
	}
	t.rollback()
	return nil
}

func (t *Tx) rollback() {
	// Aborts fan out concurrently too: rollback latency also tracks the
	// slowest participant, not the sum. Abort is idempotent and aborting a
	// participant that never prepared is a no-op (presumed abort), so no
	// ordering is required.
	_, _ = t.round(legAbort, nil, nil)
	t.coord.finish(t.id, false, false)
	t.active = false
}

// Atomically runs fn inside a transaction, committing on nil and aborting
// on error; deadlock aborts are retried up to 10 times with fresh
// transactions, which is the standard application-level response to
// ErrDeadlock. Retries are paced by a jittered exponential backoff:
// without it the loser of a shared→exclusive upgrade restarts in
// lockstep with the winner's next transaction and collides again.
//
// The Tx and tx.Context() are valid until fn returns: Atomically then
// recycles the Tx. Until it is reused, a kept Tx answers ErrTxDone and its
// context's Value((*Tx)(nil)) is nil.
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
			err = tx.Commit()
			c.recycle(tx)
			return err
		}
		_ = tx.Abort()
		c.recycle(tx)
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
