package transactions

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mgmt"
	"repro/internal/values"
)

func ctxT() context.Context { return context.Background() }

func seeded(t *testing.T, name string, kv map[string]int64) (*Coordinator, *Store) {
	t.Helper()
	c := NewCoordinator()
	s := NewStore(name, nil)
	tx := c.Begin(ctxT())
	for k, v := range kv {
		if err := tx.Write(s, k, values.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return c, s
}

func readInt(t *testing.T, tx *Tx, s *Store, key string) int64 {
	t.Helper()
	v, err := tx.Read(s, key)
	if err != nil {
		t.Fatalf("Read(%s): %v", key, err)
	}
	i, _ := v.AsInt()
	return i
}

func TestCommitMakesWritesVisible(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"alice": 100})
	tx := c.Begin(ctxT())
	if got := readInt(t, tx, s, "alice"); got != 100 {
		t.Errorf("alice = %d", got)
	}
	if err := tx.Write(s, "alice", values.Int(150)); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes inside the transaction.
	if got := readInt(t, tx, s, "alice"); got != 150 {
		t.Errorf("own write = %d", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := c.Begin(ctxT())
	defer tx2.Abort()
	if got := readInt(t, tx2, s, "alice"); got != 150 {
		t.Errorf("after commit = %d", got)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"alice": 100})
	tx := c.Begin(ctxT())
	if err := tx.Write(s, "alice", values.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	tx2 := c.Begin(ctxT())
	defer tx2.Abort()
	if got := readInt(t, tx2, s, "alice"); got != 100 {
		t.Errorf("after abort = %d (recoverability violated)", got)
	}
	// Locks are gone.
	if s.lm.heldKeys(tx.ID()) != 0 {
		t.Error("aborted tx still holds locks")
	}
}

func TestDelete(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"alice": 100})
	tx := c.Begin(ctxT())
	if err := tx.Delete(s, "alice"); err != nil {
		t.Fatal(err)
	}
	// Deleted within the transaction.
	if _, err := tx.Read(s, "alice"); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of own delete = %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := c.Begin(ctxT())
	defer tx2.Abort()
	if _, err := tx2.Read(s, "alice"); !errors.Is(err, ErrNotFound) {
		t.Errorf("read after committed delete = %v", err)
	}
}

func TestTxDoneGuards(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"a": 1})
	tx := c.Begin(ctxT())
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("abort after commit = %v", err)
	}
	if _, err := tx.Read(s, "a"); !errors.Is(err, ErrTxDone) {
		t.Errorf("read after commit = %v", err)
	}
	if err := tx.Write(s, "a", values.Int(2)); !errors.Is(err, ErrTxDone) {
		t.Errorf("write after commit = %v", err)
	}
	if err := tx.Delete(s, "a"); !errors.Is(err, ErrTxDone) {
		t.Errorf("delete after commit = %v", err)
	}
	if err := tx.Enlist(s); !errors.Is(err, ErrTxDone) {
		t.Errorf("enlist after commit = %v", err)
	}
}

func TestVisibilityIsolation(t *testing.T) {
	// "visibility: the degree to which the intermediate effects of an
	// operation are visible to other operations" — with strict 2PL the
	// degree is zero: a reader blocks until the writer finishes.
	c, s := seeded(t, "bank", map[string]int64{"alice": 100})
	writer := c.Begin(ctxT())
	if err := writer.Write(s, "alice", values.Int(999)); err != nil {
		t.Fatal(err)
	}
	readerDone := make(chan int64, 1)
	go func() {
		reader := c.Begin(ctxT())
		defer reader.Abort()
		v, err := reader.Read(s, "alice")
		if err != nil {
			readerDone <- -1
			return
		}
		i, _ := v.AsInt()
		readerDone <- i
	}()
	// The reader must be blocked, not observing 999 or 100.
	select {
	case v := <-readerDone:
		t.Fatalf("reader returned %d while writer uncommitted", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-readerDone:
		if v != 999 {
			t.Errorf("reader saw %d, want 999", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader never unblocked")
	}
}

func TestSharedReadersDoNotBlock(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"alice": 100})
	t1 := c.Begin(ctxT())
	t2 := c.Begin(ctxT())
	defer t1.Abort()
	defer t2.Abort()
	if got := readInt(t, t1, s, "alice"); got != 100 {
		t.Errorf("t1 = %d", got)
	}
	if got := readInt(t, t2, s, "alice"); got != 100 {
		t.Errorf("t2 = %d", got)
	}
}

func TestLockUpgrade(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"alice": 100})
	tx := c.Begin(ctxT())
	defer tx.Abort()
	if got := readInt(t, tx, s, "alice"); got != 100 {
		t.Fatal("read failed")
	}
	// Sole shared holder upgrades to exclusive without deadlocking itself.
	if err := tx.Write(s, "alice", values.Int(1)); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"a": 1, "b": 2})
	t1 := c.Begin(ctxT())
	t2 := c.Begin(ctxT())
	if err := t1.Write(s, "a", values.Int(10)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(s, "b", values.Int(20)); err != nil {
		t.Fatal(err)
	}
	// t1 blocks on b.
	t1err := make(chan error, 1)
	go func() { t1err <- t1.Write(s, "b", values.Int(11)) }()
	time.Sleep(10 * time.Millisecond)
	// t2 requests a: cycle — must fail fast with ErrDeadlock.
	err := t2.Write(s, "a", values.Int(21))
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("t2 write = %v, want deadlock", err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	// t1 now gets b and completes.
	if err := <-t1err; err != nil {
		t.Fatalf("t1 blocked write = %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLockWaitRespectsContext(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"a": 1})
	holder := c.Begin(ctxT())
	if err := holder.Write(s, "a", values.Int(2)); err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	waiter := c.Begin(ctx)
	defer waiter.Abort()
	if _, err := waiter.Read(s, "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blocked read = %v", err)
	}
}

func TestTwoPhaseCommitAcrossStores(t *testing.T) {
	c := NewCoordinator()
	s1 := NewStore("accounts", nil)
	s2 := NewStore("ledger", nil)
	tx := c.Begin(ctxT())
	if err := tx.Write(s1, "alice", values.Int(50)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(s2, "entry-1", values.Str("alice-50")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(s1.Snapshot()) != 1 || len(s2.Snapshot()) != 1 {
		t.Error("both stores should have committed")
	}
	// Each store's log carries prepare+commit.
	for _, s := range []*Store{s1, s2} {
		recs := s.Log().Records()
		if len(recs) != 2 || recs[0].Kind != RecPrepare || recs[1].Kind != RecCommit {
			t.Errorf("%s log = %v", s.Name(), recs)
		}
	}
	if commits, aborts := c.Stats(); commits != 1 || aborts != 0 {
		t.Errorf("stats = %d/%d", commits, aborts)
	}
}

// TestOutcomeAtParticipantCount: however many stores a transaction writes,
// a commit makes every write visible in every store, each store logging a
// prepare and a commit per transaction, and an abort leaves no write and no
// lock anywhere, each store logging the abort alone.
func TestOutcomeAtParticipantCount(t *testing.T) {
	for _, c := range []struct {
		participants int
		commit       bool
	}{{1, true}, {2, true}, {4, true}, {8, true}, {1, false}, {4, false}} {
		outcome := "abort"
		if c.commit {
			outcome = "commit"
		}
		t.Run(fmt.Sprintf("%s/participants=%d", outcome, c.participants), func(t *testing.T) {
			const rounds = 3
			coord := NewCoordinator()
			stores := make([]*Store, c.participants)
			for i := range stores {
				stores[i] = NewStore(fmt.Sprintf("s%d", i), nil)
			}
			for r := 1; r <= rounds; r++ {
				tx := coord.Begin(ctxT())
				for _, s := range stores {
					if err := tx.Write(s, fmt.Sprintf("k%d", r), values.Int(int64(r))); err != nil {
						t.Fatal(err)
					}
				}
				end := tx.Abort
				if c.commit {
					end = tx.Commit
				}
				if err := end(); err != nil {
					t.Fatal(err)
				}
				for _, s := range stores {
					if n := s.lm.heldKeys(tx.ID()); n != 0 {
						t.Errorf("%s: tx %d still holds %d locks", s.Name(), r, n)
					}
				}
			}
			perTx := []RecordKind{RecAbort}
			if c.commit {
				perTx = []RecordKind{RecPrepare, RecCommit}
			}
			for _, s := range stores {
				snap, recs := s.Snapshot(), s.Log().Records()
				if !c.commit && len(snap) != 0 {
					t.Errorf("%s after aborts: state %v", s.Name(), snap)
				}
				for r := 1; c.commit && r <= rounds; r++ {
					if v, ok := snap[fmt.Sprintf("k%d", r)]; !ok || !v.Equal(values.Int(int64(r))) {
						t.Errorf("%s: k%d = %v, %v", s.Name(), r, v, ok)
					}
				}
				if len(recs) != len(perTx)*rounds {
					t.Fatalf("%s log = %v", s.Name(), recs)
				}
				for i, rec := range recs {
					if want := perTx[i%len(perTx)]; rec.Kind != want {
						t.Errorf("%s log record %d = %v, want %v", s.Name(), i, rec.Kind, want)
					}
				}
			}
			commits, aborts := coord.Stats()
			if c.commit && (commits != rounds || aborts != 0) || !c.commit && (commits != 0 || aborts != rounds) {
				t.Errorf("stats = %d commits, %d aborts", commits, aborts)
			}
		})
	}
}

// vetoParticipant votes no in phase 1.
type vetoParticipant struct{ aborted bool }

func (v *vetoParticipant) Name() string { return "veto" }
func (v *vetoParticipant) Prepare(uint64) (Vote, error) {
	return VoteCommit, errors.New("cannot prepare")
}
func (v *vetoParticipant) Commit(uint64) error { return nil }
func (v *vetoParticipant) Abort(uint64) error  { v.aborted = true; return nil }

func TestVetoAbortsEverywhere(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"alice": 100})
	veto := &vetoParticipant{}
	tx := c.Begin(ctxT())
	if err := tx.Write(s, "alice", values.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Enlist(veto); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrVetoed) {
		t.Fatalf("commit = %v", err)
	}
	if !veto.aborted {
		t.Error("veto participant should see Abort")
	}
	tx2 := c.Begin(ctxT())
	defer tx2.Abort()
	if got := readInt(t, tx2, s, "alice"); got != 100 {
		t.Errorf("store state after veto = %d (atomicity violated)", got)
	}
	if committed, known := c.Decided(tx.ID()); committed || known {
		t.Error("vetoed tx must have no commit decision (presumed abort)")
	}
}

func TestRecoveryReplaysCommitted(t *testing.T) {
	// Commit, "crash" the store, recover from the log: permanence.
	c := NewCoordinator()
	log := NewLog()
	s := NewStore("bank", log)
	tx := c.Begin(ctxT())
	if err := tx.Write(s, "alice", values.Int(77)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(s, "bob", values.Int(33)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx1b := c.Begin(ctxT())
	if err := tx1b.Delete(s, "bob"); err != nil {
		t.Fatal(err)
	}
	if err := tx1b.Commit(); err != nil {
		t.Fatal(err)
	}
	// An aborted transaction must not reappear.
	tx2 := c.Begin(ctxT())
	if err := tx2.Write(s, "alice", values.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}

	recovered := Recover("bank", log, func(txID uint64) bool {
		committed, _ := c.Decided(txID)
		return committed
	})
	snap := recovered.Snapshot()
	if v, ok := snap["alice"]; !ok || !v.Equal(values.Int(77)) {
		t.Errorf("alice = %v", snap["alice"])
	}
	if _, ok := snap["bob"]; ok {
		t.Error("bob should stay deleted")
	}
}

func TestRecoveryResolvesInDoubt(t *testing.T) {
	// A participant prepares, then crashes before learning the outcome.
	c := NewCoordinator()
	log := NewLog()
	s := NewStore("bank", log)
	tx := c.Begin(ctxT())
	if err := tx.Write(s, "x", values.Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(tx.ID()); err != nil { // phase 1 reached the store...
		t.Fatal(err)
	}
	// ...but the commit decision was taken at the coordinator only.
	c.mu.Lock()
	c.decisions[tx.ID()] = true
	c.mu.Unlock()

	if got := InDoubt(log); len(got) != 1 || got[0] != tx.ID() {
		t.Fatalf("InDoubt = %v", got)
	}
	recovered := Recover("bank", log, func(txID uint64) bool {
		committed, _ := c.Decided(txID)
		return committed
	})
	if v, ok := recovered.Snapshot()["x"]; !ok || !v.Equal(values.Int(1)) {
		t.Error("in-doubt commit not applied")
	}
	// And the other way: no decision means presumed abort.
	log2 := NewLog()
	s2 := NewStore("bank2", log2)
	tx2 := c.Begin(ctxT())
	if err := tx2.Write(s2, "y", values.Int(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Prepare(tx2.ID()); err != nil {
		t.Fatal(err)
	}
	recovered2 := Recover("bank2", log2, func(txID uint64) bool {
		committed, _ := c.Decided(txID)
		return committed
	})
	if _, ok := recovered2.Snapshot()["y"]; ok {
		t.Error("presumed-abort tx must not be applied")
	}
	if got := InDoubt(log2); len(got) != 0 {
		t.Errorf("in-doubt after recovery = %v", got)
	}
}

func TestCommitWithoutPrepare(t *testing.T) {
	s := NewStore("bank", nil)
	if err := s.Commit(42); !errors.Is(err, ErrNotPrepared) {
		t.Errorf("commit without prepare = %v", err)
	}
}

func TestConcurrentTransfersPreserveInvariant(t *testing.T) {
	// The classic: concurrent transfers between accounts must conserve the
	// total. This exercises locking, deadlock retry and atomicity at once.
	c, s := seeded(t, "bank", map[string]int64{"a": 100, "b": 100, "c": 100})
	const workers, transfers = 4, 25
	var wg sync.WaitGroup
	accounts := []string{"a", "b", "c"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := accounts[(w+i)%3]
				to := accounts[(w+i+1)%3]
				err := c.Atomically(ctxT(), func(tx *Tx) error {
					fv, err := tx.Read(s, from)
					if err != nil {
						return err
					}
					tv, err := tx.Read(s, to)
					if err != nil {
						return err
					}
					f, _ := fv.AsInt()
					g, _ := tv.AsInt()
					if err := tx.Write(s, from, values.Int(f-1)); err != nil {
						return err
					}
					return tx.Write(s, to, values.Int(g+1))
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	tx := c.Begin(ctxT())
	defer tx.Abort()
	total := readInt(t, tx, s, "a") + readInt(t, tx, s, "b") + readInt(t, tx, s, "c")
	if total != 300 {
		t.Errorf("total = %d, want 300 (atomicity/isolation violated)", total)
	}
}

func TestAtomicallyBacksOffBetweenDeadlockRetries(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"a": 1})
	attempts := 0
	err := c.Atomically(ctxT(), func(tx *Tx) error {
		if attempts++; attempts < 3 {
			return fmt.Errorf("simulated: %w", ErrDeadlock)
		}
		return tx.Write(s, "a", values.Int(2))
	})
	if err != nil || attempts != 3 {
		t.Fatalf("err = %v after %d attempts, want success on the third", err, attempts)
	}

	// The wait between attempts ends with the caller's context.
	ctx, cancel := context.WithCancel(context.Background())
	attempts = 0
	err = c.Atomically(ctx, func(*Tx) error {
		attempts++
		cancel()
		return ErrDeadlock
	})
	if !errors.Is(err, context.Canceled) || attempts != 1 {
		t.Fatalf("err = %v after %d attempts, want context.Canceled after one", err, attempts)
	}
}

func TestAtomicallyPropagatesApplicationError(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"a": 1})
	sentinel := errors.New("app failure")
	err := c.Atomically(ctxT(), func(tx *Tx) error {
		if err := tx.Write(s, "a", values.Int(9)); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	tx := c.Begin(ctxT())
	defer tx.Abort()
	if got := readInt(t, tx, s, "a"); got != 1 {
		t.Errorf("state = %d, want 1", got)
	}
}

func TestRecordKindString(t *testing.T) {
	for k, want := range map[RecordKind]string{
		RecPrepare: "prepare", RecCommit: "commit", RecAbort: "abort", RecCheckpoint: "checkpoint",
		RecordKind(0): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", int(k), got)
		}
	}
}

func TestStoreAbortUnknownTxIsNoop(t *testing.T) {
	s := NewStore("bank", nil)
	if err := s.Abort(99); err != nil {
		t.Errorf("abort unknown = %v", err)
	}
	if s.Log().Len() != 0 {
		t.Error("no-op abort should not be logged")
	}
}

func TestPrepareIdempotent(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"a": 1})
	tx := c.Begin(ctxT())
	if err := tx.Write(s, "a", values.Int(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(tx.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(tx.ID()); err != nil {
		t.Fatal(err)
	}
	prepares := 0
	for _, r := range s.Log().Records() {
		if r.Kind == RecPrepare && r.TxID == tx.ID() {
			prepares++
		}
	}
	if prepares != 1 {
		t.Errorf("prepare records = %d, want 1", prepares)
	}
	if err := s.Commit(tx.ID()); err != nil {
		t.Fatal(err)
	}
	c.finish(tx.ID(), true, true)
}

func BenchmarkLocalCommit(b *testing.B) {
	c := NewCoordinator()
	s := NewStore("bank", nil)
	for i := 0; i < b.N; i++ {
		tx := c.Begin(context.Background())
		key := fmt.Sprintf("k%d", i%64)
		if err := tx.Write(s, key, values.Int(int64(i))); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

type ctxKey struct{}

// TestTxContext: a transaction's context answers (*Tx)(nil) with the
// transaction, delegates every other key to the context it began under,
// and is cancelled with it.
func TestTxContext(t *testing.T) {
	parent, cancel := context.WithCancel(context.WithValue(ctxT(), ctxKey{}, "caller"))
	tx := NewCoordinator().Begin(parent)
	defer tx.Abort()
	ctx := tx.Context()
	if got, _ := ctx.Value((*Tx)(nil)).(*Tx); got != tx {
		t.Fatalf("Value((*Tx)(nil)) = %v, want the transaction", ctx.Value((*Tx)(nil)))
	}
	if got := ctx.Value(ctxKey{}); got != "caller" {
		t.Fatalf("Value(ctxKey) = %v, want the parent's value", got)
	}
	if ctx.Err() != nil {
		t.Fatal("context done before its parent was cancelled")
	}
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("transaction context not cancelled with its parent")
	}
}

// TestInstrumentedCommit: an instrumented coordinator traces a commit as
// a tx.commit span with one child per participant leg and records its
// latency; a vetoed commit counts a veto and fails its span; detaching
// stops both.
func TestInstrumentedCommit(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"alice": 100})
	m := mgmt.New()
	ins := m.Tx("bank")
	c.Instrument(ins)

	tx := c.Begin(ctxT())
	if err := tx.Write(s, "alice", values.Int(150)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ids := m.Tracer.TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("traces = %v, want one", ids)
	}
	names := map[string]mgmt.Span{}
	for _, sp := range m.Tracer.Trace(ids[0]) {
		names[sp.Name] = sp
	}
	root, ok := names["tx.commit"]
	if !ok || root.Parent != 0 || root.Err != "" {
		t.Fatalf("commit span = %+v (found %v)", root, ok)
	}
	for _, leg := range []string{"tx.prepare:bank", "tx.complete:bank"} {
		if sp, ok := names[leg]; !ok || sp.Parent != root.ID {
			t.Fatalf("leg %s = %+v (found %v), want a child of the commit span", leg, sp, ok)
		}
	}
	if n := ins.CommitLatency.Snapshot().Count; n != 1 {
		t.Fatalf("commit latency count = %d, want 1", n)
	}

	tx = c.Begin(ctxT())
	if err := tx.Write(s, "alice", values.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Enlist(&vetoParticipant{}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrVetoed) {
		t.Fatalf("commit = %v, want ErrVetoed", err)
	}
	if n := ins.Vetoes.Load(); n != 1 {
		t.Fatalf("vetoes = %d, want 1", n)
	}
	if n := ins.CommitLatency.Snapshot().Count; n != 1 {
		t.Fatalf("commit latency count after veto = %d, want still 1", n)
	}
	ids = m.Tracer.TraceIDs()
	if len(ids) != 2 {
		t.Fatalf("traces = %v, want two", ids)
	}
	var vetoed bool
	for _, sp := range m.Tracer.Trace(ids[1]) {
		vetoed = vetoed || (sp.Name == "tx.commit" && sp.Err != "")
	}
	if !vetoed {
		t.Fatal("vetoed commit span carries no failure")
	}

	c.Instrument(nil)
	started := m.Tracer.Stats().Started
	if err := c.Atomically(ctxT(), func(tx *Tx) error { return tx.Write(s, "alice", values.Int(1)) }); err != nil {
		t.Fatal(err)
	}
	if m.Tracer.Stats().Started != started || ins.CommitLatency.Snapshot().Count != 1 {
		t.Fatal("a detached coordinator still records")
	}
}
