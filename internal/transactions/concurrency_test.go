package transactions

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/values"
)

// vetoPart votes no in phase 1. Commit must never reach it.
type vetoPart struct{ committed bool }

func (v *vetoPart) Name() string { return "veto" }
func (v *vetoPart) Prepare(txID uint64) (Vote, error) {
	return VoteCommit, errors.New("resource refuses")
}
func (v *vetoPart) Commit(txID uint64) error {
	v.committed = true
	return nil
}
func (v *vetoPart) Abort(txID uint64) error { return nil }

// TestConcurrentPrepareVetoLeavesNoOrphans commits a transaction across
// seven stores plus one vetoing participant, so phase 1 runs eight
// prepares concurrently and one of them says no. Every store must end up
// clean: nothing in doubt, no prepare record without a matching abort, no
// locks held, and no durable decision for the transaction (presumed
// abort). Repeated to vary the goroutine schedule.
func TestConcurrentPrepareVetoLeavesNoOrphans(t *testing.T) {
	const rounds = 20
	for round := 0; round < rounds; round++ {
		c := NewCoordinator()
		logs := make([]*Log, 7)
		stores := make([]*Store, 7)
		for i := range stores {
			logs[i] = NewLog()
			stores[i] = NewStore(fmt.Sprintf("s%d", i), logs[i])
		}
		veto := &vetoPart{}

		tx := c.Begin(ctxT())
		for i, s := range stores {
			if err := tx.Write(s, "k", values.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Enlist(veto); err != nil {
			t.Fatal(err)
		}
		err := tx.Commit()
		if !errors.Is(err, ErrVetoed) {
			t.Fatalf("round %d: Commit = %v, want ErrVetoed", round, err)
		}
		if veto.committed {
			t.Fatalf("round %d: vetoing participant received Commit", round)
		}
		if committed, known := c.Decided(tx.ID()); committed || known {
			t.Fatalf("round %d: decision log has (%v,%v) for a vetoed tx", round, committed, known)
		}
		for i, s := range stores {
			// No orphans: a store either never prepared (its prepare was
			// skipped after the veto) or its prepare record is matched by an
			// abort record, which is exactly what InDoubt computes.
			if doubted := InDoubt(logs[i]); len(doubted) != 0 {
				t.Fatalf("round %d: store %d in doubt: %v", round, i, doubted)
			}
			var prepared, aborted bool
			for _, rec := range logs[i].Records() {
				if rec.TxID != tx.ID() {
					continue
				}
				switch rec.Kind {
				case RecPrepare:
					prepared = true
				case RecCommit:
					t.Fatalf("round %d: store %d logged a commit for a vetoed tx", round, i)
				case RecAbort:
					aborted = true
				}
			}
			if prepared && !aborted {
				t.Fatalf("round %d: store %d holds an orphan prepare record", round, i)
			}
			if held := s.lm.heldKeys(tx.ID()); held != 0 {
				t.Fatalf("round %d: store %d still holds %d locks", round, i, held)
			}
			// The store must be writable again immediately.
			tx2 := c.Begin(ctxT())
			if err := tx2.Write(s, "k", values.Int(99)); err != nil {
				t.Fatalf("round %d: store %d rejects writes after abort: %v", round, i, err)
			}
			if err := tx2.Abort(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConcurrentTransfersConserveMoney runs concurrent transfers between
// accounts split across two stores — every commit is a genuine two-store
// 2PC, now with concurrent prepares and commits — and checks the invariant
// the tutorial's bank example is built on: money is neither created nor
// destroyed.
func TestConcurrentTransfersConserveMoney(t *testing.T) {
	const (
		goroutines = 8
		transfers  = 25
		initial    = 500
	)
	c := NewCoordinator()
	logA, logB := NewLog(), NewLog()
	sa := NewStore("bankA", logA)
	sb := NewStore("bankB", logB)
	seedTx := c.Begin(ctxT())
	if err := seedTx.Write(sa, "alice", values.Int(initial)); err != nil {
		t.Fatal(err)
	}
	if err := seedTx.Write(sb, "bob", values.Int(initial)); err != nil {
		t.Fatal(err)
	}
	if err := seedTx.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for j := 0; j < transfers; j++ {
				amount := int64(1 + (gi+j)%7)
				// Alternate direction so both stores see debits and credits.
				delta := amount
				if (gi+j)%2 == 1 {
					delta = -amount
				}
				// Each store detects waits-for cycles among its own keys, but
				// a cycle spanning both stores is invisible to either, so the
				// application must keep cross-store waits acyclic itself: touch
				// the accounts in one global order (alice's store before
				// bob's), finishing with each store before moving on. Balances
				// may go negative; conservation is the invariant under test.
				err := c.Atomically(ctxT(), func(tx *Tx) error {
					av, err := tx.Read(sa, "alice")
					if err != nil {
						return err
					}
					a, _ := av.AsInt()
					if err := tx.Write(sa, "alice", values.Int(a-delta)); err != nil {
						return err
					}
					bv, err := tx.Read(sb, "bob")
					if err != nil {
						return err
					}
					b, _ := bv.AsInt()
					return tx.Write(sb, "bob", values.Int(b+delta))
				})
				// A transfer that gives up after repeated deadlocks (shared
				// holders of alice racing to upgrade) was cleanly aborted —
				// conservation is unaffected — so only other failures count.
				if err != nil && !errors.Is(err, ErrDeadlock) {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()

	check := c.Begin(ctxT())
	defer check.Abort()
	av, err := check.Read(sa, "alice")
	if err != nil {
		t.Fatal(err)
	}
	bv, err := check.Read(sb, "bob")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := av.AsInt()
	b, _ := bv.AsInt()
	if a+b != 2*initial {
		t.Fatalf("money not conserved: alice=%d bob=%d sum=%d want %d", a, b, a+b, 2*initial)
	}
	if doubted := InDoubt(logA); len(doubted) != 0 {
		t.Errorf("store A in doubt after workload: %v", doubted)
	}
	if doubted := InDoubt(logB); len(doubted) != 0 {
		t.Errorf("store B in doubt after workload: %v", doubted)
	}
}
