package transactions

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/values"
)

// decisionCount is the size of the coordinator's presumed-abort table.
func decisionCount(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.decisions)
}

// waitQueued blocks until n requests wait for key at s.
func waitQueued(t *testing.T, s *Store, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.lm.mu.Lock()
		e := s.lm.locks[key]
		queued := e != nil && len(e.queue) == n
		s.lm.mu.Unlock()
		if queued {
			return
		}
	}
	t.Fatalf("no %d waiters on %q", n, key)
}

// gatePart votes to commit once its gate opens, and records what the
// second phase brought it and whether the coordinator held the commit
// decision when it did.
type gatePart struct {
	gate      chan struct{}
	coord     *Coordinator
	committed bool
	decided   bool
}

func (g *gatePart) Name() string { return "gate" }
func (g *gatePart) Prepare(uint64) (Vote, error) {
	<-g.gate
	return VoteCommit, nil
}
func (g *gatePart) Commit(txID uint64) error {
	g.committed = true
	g.decided, _ = g.coord.Decided(txID)
	return nil
}
func (g *gatePart) Abort(uint64) error { return nil }

// TestReadOnlyTransactionLeavesNoTrace: a transaction that only read
// commits without a log record or a decision entry, is still counted, and
// gives its locks up when it votes — a writer queued behind a reader is
// granted while another participant is still voting, before any second
// phase. The participant that voted to commit learns a decision the
// coordinator holds, and forgets once it has acknowledged it.
func TestReadOnlyTransactionLeavesNoTrace(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"alice": 100})
	logLen, decisions := s.Log().Len(), decisionCount(c)
	commits0, _ := c.Stats()
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.Atomically(ctxT(), func(tx *Tx) error {
			if got := readInt(t, tx, s, "alice"); got != 100 {
				t.Errorf("alice = %d", got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Log().Len(); got != logLen {
		t.Errorf("log grew from %d to %d records over %d reads", logLen, got, n)
	}
	if got := InDoubt(s.Log()); len(got) != 0 {
		t.Errorf("InDoubt = %v", got)
	}
	if got := decisionCount(c); got != decisions {
		t.Errorf("decision table grew from %d to %d entries over %d reads", decisions, got, n)
	}
	if commits, aborts := c.Stats(); commits != commits0+n || aborts != 0 {
		t.Errorf("stats = %d commits, %d aborts; want %d, 0", commits, aborts, commits0+n)
	}

	reader := c.Begin(ctxT())
	readInt(t, reader, s, "alice")
	gate := &gatePart{gate: make(chan struct{}), coord: c}
	if err := reader.Enlist(gate); err != nil {
		t.Fatal(err)
	}
	writer := c.Begin(ctxT())
	granted := make(chan error, 1)
	go func() { granted <- writer.Write(s, "alice", values.Int(1)) }()
	waitQueued(t, s, "alice", 1)
	done := make(chan error, 1)
	go func() { done <- reader.Commit() }()
	select {
	case err := <-granted: // the gate is shut: the reader's commit is still in its first phase
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the writer was not granted the lock at the reader's vote")
	}
	close(gate.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !gate.committed {
		t.Error("the participant that voted to commit was left out of phase 2")
	}
	if !gate.decided {
		t.Error("a transaction with a prepared participant logged no decision")
	}
	if _, known := c.Decided(reader.ID()); known {
		t.Error("a decision every participant acknowledged is still kept")
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMixedReadOnlyAndWritingParticipants: of two stores one is only read.
// The writer's log is prepare + commit and the reader's stays empty; with a
// vetoing third participant the writer aborts, nothing is applied and every
// lock is free.
func TestMixedReadOnlyAndWritingParticipants(t *testing.T) {
	c := NewCoordinator()
	rs, ws := NewStore("read", nil), NewStore("written", nil)
	seed := c.Begin(ctxT())
	if err := seed.Write(rs, "rate", values.Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	seedLen := rs.Log().Len()

	tx := c.Begin(ctxT())
	rate := readInt(t, tx, rs, "rate")
	if err := tx.Write(ws, "total", values.Int(rate*10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := rs.Log().Len(); got != seedLen {
		t.Errorf("the read store logged %d records", got-seedLen)
	}
	recs := ws.Log().Records()
	if len(recs) != 2 || recs[0].Kind != RecPrepare || recs[1].Kind != RecCommit || recs[0].TxID != tx.ID() {
		t.Errorf("the written store's log = %+v, want prepare + commit of tx %d", recs, tx.ID())
	}
	if committed, known := c.Decided(tx.ID()); committed || known {
		t.Errorf("Decided = %v, %v after every participant acknowledged", committed, known)
	}
	if v := ws.Snapshot()["total"]; !v.Equal(values.Int(30)) {
		t.Errorf("total = %v", v)
	}

	for round := 0; round < 20; round++ { // the vote is concurrent: vary the schedule
		tx = c.Begin(ctxT())
		readInt(t, tx, rs, "rate")
		if err := tx.Write(ws, "total", values.Int(-1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Enlist(&vetoPart{}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrVetoed) {
			t.Fatalf("Commit = %v, want ErrVetoed", err)
		}
		if _, known := c.Decided(tx.ID()); known {
			t.Fatal("a vetoed transaction has a decision")
		}
		if v := ws.Snapshot()["total"]; !v.Equal(values.Int(30)) {
			t.Fatalf("a vetoed write was applied: total = %v", v)
		}
		if got := InDoubt(ws.Log()); len(got) != 0 {
			t.Fatalf("InDoubt = %v", got)
		}
		if rs.lm.heldKeys(tx.ID())+ws.lm.heldKeys(tx.ID()) != 0 {
			t.Fatal("a vetoed transaction still holds locks")
		}
	}
	if got := rs.Log().Len(); got != seedLen {
		t.Errorf("the read store logged %d records", got-seedLen)
	}
}

// logOf rebuilds a log from records, as a crash at that point leaves it.
func logOf(recs []Record) *Log {
	l := NewLog()
	for _, r := range recs {
		l.Append(r)
	}
	return l
}

func sameState(a, b map[string]values.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// TestRecoverEquivalenceWithReads runs a seeded mix of read-only and
// writing transactions over two stores. Recovery from each log rebuilds the
// live state; no read-only transaction appears in a log; no transaction
// is left in the decision table once its commit has returned (every
// participant acknowledged it); and a log cut after any prepare record
// resolves by the decision the coordinator held while that record was in
// doubt — commit, for every transaction that wrote — exactly as the uncut
// log went on to.
func TestRecoverEquivalenceWithReads(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := NewCoordinator()
	stores := []*Store{NewStore("a", nil), NewStore("b", nil)}
	wrote := map[uint64]bool{}
	for i := 0; i < 300; i++ {
		tx := c.Begin(ctxT())
		for op := rng.Intn(4) + 1; op > 0; op-- {
			s, key := stores[rng.Intn(2)], fmt.Sprintf("k%d", rng.Intn(8))
			switch rng.Intn(10) {
			case 0, 1:
				wrote[tx.ID()] = true
				if err := tx.Write(s, key, values.Int(int64(i))); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := tx.Read(s, key); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, known := c.Decided(tx.ID()); known {
			t.Fatalf("tx %d: wrote %v, decision still known after every participant acknowledged", tx.ID(), wrote[tx.ID()])
		}
	}
	if len(wrote) < 50 || len(wrote) > 250 {
		t.Fatalf("%d of 300 transactions wrote: the mix is not one", len(wrote))
	}
	decide := func(tx uint64) bool { return wrote[tx] }
	for _, s := range stores {
		recs := s.Log().Records()
		if got := Recover(s.Name(), logOf(recs), decide).Snapshot(); !sameState(got, s.Snapshot()) {
			t.Errorf("store %s: recovered %v, live %v", s.Name(), got, s.Snapshot())
		}
		for i, r := range recs {
			if !wrote[r.TxID] {
				t.Fatalf("store %s: record %d belongs to read-only tx %d", s.Name(), i, r.TxID)
			}
			if r.Kind != RecPrepare {
				continue
			}
			// Transactions ran one at a time, so the commit record follows.
			forward := Recover(s.Name(), logOf(recs[:i+2]), nil).Snapshot()
			if got := Recover(s.Name(), logOf(recs[:i+1]), decide).Snapshot(); !sameState(got, forward) {
				t.Fatalf("store %s cut after record %d: decided %v, went on to %v", s.Name(), i, got, forward)
			}
			before := Recover(s.Name(), logOf(recs[:i]), nil).Snapshot()
			if got := Recover(s.Name(), logOf(recs[:i+1]), nil).Snapshot(); !sameState(got, before) {
				t.Fatalf("store %s cut after record %d: presumed abort left %v, want %v", s.Name(), i, got, before)
			}
		}
	}
}

// TestWriteSetSliceSemantics asserts on the slice what the map it replaced
// gave for free: the last write to a key wins, a transaction sees its own
// writes over the committed state and that state where it wrote nothing,
// and the record carrying the write set — here a lone store's one-phase
// commit record — is sorted by key and holds only what it wrote.
func TestWriteSetSliceSemantics(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"c": 7, "q": 8})
	tx := c.Begin(ctxT())
	for _, w := range []struct {
		key string
		v   int64
	}{{"z", 1}, {"m", 2}, {"a", 3}, {"m", 4}, {"z", 5}} {
		if err := tx.Write(s, w.key, values.Int(w.v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Write(s, "q", values.Int(9)); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{"z": 5, "m": 4, "a": 3, "q": 9, "c": 7} {
		if got := readInt(t, tx, s, key); got != want {
			t.Errorf("own write %s = %d, want %d", key, got, want)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := s.Log().Records()
	last := recs[len(recs)-1]
	var keys []string
	for _, op := range last.Writes {
		keys = append(keys, op.Key)
	}
	if got, want := fmt.Sprint(keys), "[a m q z]"; last.Kind != RecCommit || got != want {
		t.Errorf("one-phase commit record %v keys = %s, want %s", last.Kind, got, want)
	}
	want := map[string]values.Value{"a": values.Int(3), "c": values.Int(7), "m": values.Int(4), "q": values.Int(9), "z": values.Int(5)}
	if got := s.Snapshot(); !sameState(got, want) {
		t.Errorf("committed = %v, want %v", got, want)
	}
	if got := Recover("bank", s.Log(), nil).Snapshot(); !sameState(got, want) {
		t.Errorf("recovered = %v, want %v", got, want)
	}
}

// TestAtomicallyAllocBudget: a transaction allocates nothing it does not
// hand on — Atomically recycles its Tx, and a read-modify-write's one
// commit record is copied into an arena the log reuses.
func TestAtomicallyAllocBudget(t *testing.T) {
	c, s := seeded(t, "bank", map[string]int64{"k": 0})
	read := func(tx *Tx) error {
		_, err := tx.Read(s, "k")
		return err
	}
	rmw := func(tx *Tx) error {
		v, err := tx.Read(s, "k")
		if err != nil {
			return err
		}
		n, _ := v.AsInt()
		return tx.Write(s, "k", values.Int(n+1))
	}
	for _, b := range []struct {
		name   string
		fn     func(*Tx) error
		budget float64
	}{{"read", read, 0}, {"read-modify-write", rmw, 0}} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.Atomically(ctxT(), b.fn); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > b.budget {
			t.Errorf("%s = %v allocs per transaction, budget %v", b.name, allocs, b.budget)
		}
	}
}
