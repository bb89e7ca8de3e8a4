package transactions

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/values"
)

// arenaCap is the capacity of the arena holding a log's write sets.
func arenaCap(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return cap(l.arena)
}

// TestRecordsIsACopy: editing what Records returns — a record, or an
// operation of its write set — leaves the log as it was.
func TestRecordsIsACopy(t *testing.T) {
	_, s := seeded(t, "bank", map[string]int64{"alice": 100, "bob": 7})
	recs := s.Log().Records()
	if len(recs) != 1 || len(recs[0].Writes) != 2 {
		t.Fatalf("log = %+v, want a one-phase commit of two writes", recs)
	}
	recs[0].Writes[0] = WriteOp{Key: "mallory", Value: values.Int(1e9)}
	recs[0].Writes[1].Value = values.Int(-1)
	recs[0].Kind = RecAbort
	again := s.Log().Records()
	if w := again[0].Writes; w[0].Key != "alice" || !w[0].Value.Equal(values.Int(100)) || !w[1].Value.Equal(values.Int(7)) {
		t.Errorf("a caller's edit reached the log's write set: %+v", w)
	}
	if again[0].Kind != RecCommit {
		t.Errorf("a caller's edit reached the log: record 0 = %v", again[0].Kind)
	}
	want := map[string]values.Value{"alice": values.Int(100), "bob": values.Int(7)}
	if got := Recover("bank", logOf(again), nil).Snapshot(); !sameState(got, want) {
		t.Errorf("recovered %v, want %v", got, want)
	}
}

// heldTx is a transaction left prepared at its stores, to be resolved
// once each has checkpointed a few times.
type heldTx struct {
	id     uint64
	writes map[int]map[string]int64 // store → key → value
	locked map[int]map[string]bool  // store → keys it read or wrote there
	since  map[int]int              // store → its checkpoint count at the prepare
	wait   int                      // checkpoints to wait at every store
	commit bool                     // how decide resolves it
	lost   bool                     // committed by the coordinator, its acknowledgement lost
}

// lostAck is a store whose completion never reaches the coordinator: it
// prepares, but its Commit is lost and the store stays prepared, as one
// that crashed before its commit record would. Not a *Store, it keeps
// two-phase commit even alone.
type lostAck struct{ s *Store }

func (l lostAck) Name() string                      { return l.s.Name() }
func (l lostAck) Prepare(txID uint64) (Vote, error) { return l.s.Prepare(txID) }
func (l lostAck) Commit(uint64) error               { return errors.New("acknowledgement lost") }
func (l lostAck) Abort(txID uint64) error           { return l.s.Abort(txID) }

// preparedVeto votes no once every store it names has prepared. The
// parallel vote skips a participant it has not yet started after the first
// veto, so a store's prepare would otherwise race the veto: whether the
// store logs a prepare and an abort, and so when it next checkpoints, would
// depend on the schedule. Store.Prepare is idempotent.
type preparedVeto []*Store

func (preparedVeto) Name() string { return "veto" }
func (v preparedVeto) Prepare(txID uint64) (Vote, error) {
	for _, s := range v {
		if _, err := s.Prepare(txID); err != nil {
			return VoteCommit, err
		}
	}
	return VoteCommit, errors.New("resource refuses")
}
func (preparedVeto) Commit(uint64) error { return nil }
func (preparedVeto) Abort(uint64) error  { return nil }

// TestRecoverAcrossCheckpoints is the bounded log's recovery property,
// seeded: 20,000 transactions on one, two and three stores — writes,
// overwrites, reads, application aborts, vetoed commits, one-phase commits
// of a lone store, and transactions left prepared across at least three
// checkpoints before decide resolves them either way. Some of those the
// coordinator committed, their acknowledgement lost: its decision must
// outlive the checkpoints, and decide asks it. The reference is a map per
// store that takes a transaction's writes when its commit returns nil.
// After every checkpoint of a store, recovery from a copy of its log
// rebuilds both the live state and the reference, InDoubt names exactly
// the transactions still prepared there, and the log has never held more
// than its bound. At the end the decision table holds exactly the
// decisions whose acknowledgement was lost. One seed is one history: every
// draw is made whatever the model then skips, and a veto races no prepare.
func TestRecoverAcrossCheckpoints(t *testing.T) {
	for n := 1; n <= 3; n++ {
		t.Run(fmt.Sprintf("stores=%d", n), func(t *testing.T) { recoverAcrossCheckpoints(t, n, 20_000) })
	}
}

func recoverAcrossCheckpoints(t *testing.T, n, txs int) {
	const keys, maxHeld = 96, 12
	rng := rand.New(rand.NewSource(int64(34 + n)))
	c := NewCoordinator()
	stores := make([]*Store, n)
	ref := make([]map[string]int64, n)
	locked := make([]map[string]bool, n) // keys a held transaction holds a lock on
	lens := make([]int, n)
	checkpoints := make([]int, n)
	for i := range stores {
		stores[i] = NewStore(fmt.Sprintf("s%d", i), nil)
		ref[i], locked[i] = map[string]int64{}, map[string]bool{}
	}
	var held []*heldTx
	resolved := map[bool]int{}
	lost := 0
	// A lock wait the model failed to foresee fails the test instead of
	// hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// state is the reference as values, with held applied when commit.
	state := func(si int, extra *heldTx) map[string]values.Value {
		out := make(map[string]values.Value, len(ref[si]))
		for k, v := range ref[si] {
			out[k] = values.Int(v)
		}
		if extra != nil && extra.commit {
			for k, v := range extra.writes[si] {
				out[k] = values.Int(v)
			}
		}
		return out
	}
	applyRef := func(writes map[int]map[string]int64) {
		for si, ws := range writes {
			for k, v := range ws {
				ref[si][k] = v
			}
		}
	}
	// check holds the property at store si; decide resolves one held
	// transaction (nil: presume every one aborted).
	check := func(si int, extra *heldTx) {
		t.Helper()
		s := stores[si]
		decide := func(tx uint64) bool {
			if extra == nil || tx != extra.id {
				return false
			}
			if extra.lost {
				committed, _ := c.Decided(tx)
				return committed
			}
			return extra.commit
		}
		got := Recover(s.Name(), logOf(s.Log().Records()), decide).Snapshot()
		if want := state(si, extra); !sameState(got, want) {
			t.Fatalf("%s after %d checkpoints: recovered %v, reference %v", s.Name(), checkpoints[si], got, want)
		}
		if extra != nil {
			return
		}
		if live := s.Snapshot(); !sameState(got, live) {
			t.Fatalf("%s after %d checkpoints: recovered %v, live %v", s.Name(), checkpoints[si], got, live)
		}
		var want []uint64
		for _, h := range held {
			if _, ok := h.writes[si]; ok {
				want = append(want, h.id)
			}
		}
		slices.Sort(want)
		if got := InDoubt(s.Log()); !slices.Equal(got, want) {
			t.Fatalf("%s after %d checkpoints: InDoubt = %v, want %v", s.Name(), checkpoints[si], got, want)
		}
	}

	for i := 0; i < txs; i++ {
		tx := c.Begin(ctx)
		writes := map[int]map[string]int64{}
		touched := map[int]map[string]bool{} // store → keys read or written
		for op := rng.Intn(4) + 1; op > 0; op-- {
			// Draw the whole op first: a skipped op must not shift the
			// draws of the ops after it, as which keys are locked depends
			// on when the stores checkpoint.
			si, key, writer, r := rng.Intn(n), fmt.Sprintf("k%02d", rng.Intn(keys)), rng.Intn(5) > 0, rng.Intn(10)
			if locked[si][key] {
				continue
			}
			if touched[si] == nil {
				touched[si] = map[string]bool{}
			}
			touched[si][key] = true
			if writes[si] == nil && writer {
				writes[si] = map[string]int64{}
			}
			var err error
			switch {
			case r < 2 || writes[si] == nil:
				_, err = tx.Read(stores[si], key)
				if errors.Is(err, ErrNotFound) {
					err = nil
				}
			default:
				err = tx.Write(stores[si], key, values.Int(int64(i)))
				writes[si][key] = int64(i)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for si, ws := range writes {
			if len(ws) == 0 {
				delete(writes, si)
			}
		}
		switch r := rng.Intn(100); {
		case r < 10:
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		case r < 20:
			var veto preparedVeto
			for si := range touched {
				veto = append(veto, stores[si])
			}
			if err := tx.Enlist(veto); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); !errors.Is(err, ErrVetoed) {
				t.Fatalf("tx %d: Commit = %v, want ErrVetoed", tx.ID(), err)
			}
		case r < 30 && len(held) < maxHeld && len(writes) > 0:
			h := &heldTx{id: tx.ID(), writes: writes, since: map[int]int{}, wait: 3 + rng.Intn(3), commit: rng.Intn(2) == 0}
			if h.lost = h.commit && rng.Intn(3) == 0; h.lost {
				for si := range writes {
					if err := tx.Enlist(lostAck{stores[si]}); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err == nil || errors.Is(err, ErrVetoed) {
					t.Fatalf("tx %d: Commit = %v, want a failed completion", tx.ID(), err)
				}
				if committed, known := c.Decided(tx.ID()); !committed || !known {
					t.Fatalf("tx %d: decision forgotten before every participant acknowledged it", tx.ID())
				}
				lost++
			}
			for si := range touched {
				if h.lost {
					break
				}
				if _, err := stores[si].Prepare(tx.ID()); err != nil {
					t.Fatal(err)
				}
			}
			for si := range writes {
				h.since[si] = checkpoints[si]
				for k := range touched[si] {
					locked[si][k] = true
				}
			}
			h.locked = touched
			held = append(held, h)
		default:
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			applyRef(writes)
		}

		// Resolve the held transactions every store has checkpointed past
		// often enough, first asking recovery what decide makes of them.
		held = slices.DeleteFunc(held, func(h *heldTx) bool {
			for si, at := range h.since {
				if checkpoints[si]-at < h.wait {
					return false
				}
			}
			for si := range h.writes {
				check(si, h)
			}
			for si := range h.writes {
				end := stores[si].Abort
				if h.commit {
					end = stores[si].Commit
				}
				if err := end(h.id); err != nil {
					t.Fatal(err)
				}
				for k := range h.locked[si] {
					delete(locked[si], k)
				}
			}
			if h.commit {
				applyRef(h.writes)
			}
			resolved[h.commit]++
			return true
		})

		for si, s := range stores {
			l, bound := s.Log().Len(), logBound(keys, maxHeld)
			if l > bound {
				t.Fatalf("%s: log holds %d records, bound %d", s.Name(), l, bound)
			}
			if l < lens[si] {
				checkpoints[si]++
				check(si, nil)
			}
			lens[si] = l
		}
	}
	for si, s := range stores {
		if checkpoints[si] < 10 {
			t.Errorf("%s checkpointed %d times in %d transactions", s.Name(), checkpoints[si], txs)
		}
	}
	t.Logf("checkpoints %v, held transactions resolved: %d committed (%d with the acknowledgement lost), %d aborted", checkpoints, resolved[true], lost, resolved[false])
	if resolved[true] < 10 || resolved[false] < 10 || lost < 5 {
		t.Errorf("held transactions resolved: %d committed (%d with the acknowledgement lost), %d aborted", resolved[true], lost, resolved[false])
	}
	if got := decisionCount(c); got != lost {
		t.Errorf("decision table holds %d entries, want the %d whose acknowledgement was lost", got, lost)
	}
}

// TestLogAppendSteadyStateAllocatesNothing: once a store's log has
// checkpointed, a one-key write transaction's Prepare and Commit allocate
// nothing, through a checkpoint included — the log reuses its record slice
// and its write-set arena.
func TestLogAppendSteadyStateAllocatesNothing(t *testing.T) {
	const keys, runs = 256, 200
	c := NewCoordinator()
	s := NewStore("bank", nil)
	key := func(i int) string { return fmt.Sprintf("k%03d", i%keys) }
	// Stage one-key transactions on distinct keys, at most keys at once.
	stage := func(n, v int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			tx := c.Begin(ctxT())
			if err := tx.Write(s, key(i), values.Int(int64(v))); err != nil {
				t.Fatal(err)
			}
			ids[i] = tx.ID()
		}
		return ids
	}
	prepareCommit := func(id uint64) {
		if _, err := s.Prepare(id); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: every key committed, the lock manager's and the write sets'
	// free lists full, and two checkpoints taken.
	for n := 0; n < 2; {
		before := s.Log().Len()
		for _, id := range stage(keys, n) {
			prepareCommit(id)
		}
		if s.Log().Len() < before {
			n++
		}
	}
	// Bring the log near its bound, so the runs below cross a checkpoint.
	for s.Log().Len() < logBound(keys, 0)-runs {
		prepareCommit(stage(1, 0)[0])
	}
	before := s.Log().Len()
	ids, next := stage(runs+1, 1), 0
	allocs := testing.AllocsPerRun(runs, func() {
		prepareCommit(ids[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("a warmed one-key Prepare + Commit = %v allocs, want 0", allocs)
	}
	if s.Log().Len() >= before {
		t.Errorf("log went from %d to %d records: the runs crossed no checkpoint", before, s.Log().Len())
	}
}

// TestBoundedLogSoak drives 300,000 deposits through a Coordinator and a
// Store, no wire: the log never holds more than its bound, and once it has
// checkpointed its write-set arena never grows again.
func TestBoundedLogSoak(t *testing.T) {
	const accounts, deposits = 100, 300_000
	kv := make(map[string]int64, accounts)
	for i := 0; i < accounts; i++ {
		kv[fmt.Sprintf("acct%03d", i)] = 0
	}
	c, s := seeded(t, "bank", kv)
	bound := logBound(accounts, 0)
	capAt, last := -1, s.Log().Len()
	for i := 0; i < deposits; i++ {
		key := fmt.Sprintf("acct%03d", i%accounts)
		if err := c.Atomically(ctxT(), func(tx *Tx) error {
			v, err := tx.Read(s, key)
			if err != nil {
				return err
			}
			n, _ := v.AsInt()
			return tx.Write(s, key, values.Int(n+1))
		}); err != nil {
			t.Fatal(err)
		}
		l := s.Log().Len()
		if l > bound {
			t.Fatalf("deposit %d: log holds %d records, bound %d", i, l, bound)
		}
		switch ac := arenaCap(s.Log()); {
		case capAt < 0 && l < last:
			capAt = ac
		case capAt >= 0 && ac != capAt:
			t.Fatalf("deposit %d: arena capacity %d, %d at the first checkpoint", i, ac, capAt)
		}
		last = l
	}
	if capAt < 0 {
		t.Fatal("300,000 deposits took no checkpoint")
	}
	if got := Recover("bank", logOf(s.Log().Records()), nil).Snapshot(); !sameState(got, s.Snapshot()) {
		t.Errorf("recovered %v, live %v", got, s.Snapshot())
	}
	if v := s.Snapshot()["acct000"]; !v.Equal(values.Int(deposits / accounts)) {
		t.Errorf("acct000 = %v, want %d", v, deposits/accounts)
	}
}

// TestDecisionTableSoak drives 300,000 transactions through one
// coordinator from four goroutines, each on keys of its own: half write a
// lone store, half two stores. A lone store commits in one phase and
// never gains a decision entry — the table is nil while those run, so one
// would panic — and logs only commit records. With two stores the table
// never holds more than the transactions in flight: each decision is
// forgotten once both stores have acknowledged it.
func TestDecisionTableSoak(t *testing.T) {
	const workers, txs = 4, 300_000
	const each = txs / 2 / workers
	c := NewCoordinator()
	lone, a, b := NewStore("lone", nil), NewStore("a", nil), NewStore("b", nil)
	run := func(stores ...*Store) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					key := fmt.Sprintf("w%d-k%02d", w, i%16)
					if err := c.Atomically(ctxT(), func(tx *Tx) error {
						for _, s := range stores {
							if err := tx.Write(s, key, values.Int(int64(i))); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
					if n := decisionCount(c); n > workers {
						t.Errorf("decision table holds %d entries with %d transactions in flight", n, workers)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	c.decisions = nil
	run(lone)
	for _, r := range lone.Log().Records() {
		if r.Kind != RecCommit && r.Kind != RecCheckpoint {
			t.Fatalf("a lone store logged a %v record", r.Kind)
		}
	}
	c.decisions = map[uint64]bool{}
	run(a, b)
	if n := decisionCount(c); n != 0 {
		t.Errorf("decision table holds %d entries after every commit was acknowledged", n)
	}
	key, last := fmt.Sprintf("w3-k%02d", (each-1)%16), values.Int(each-1)
	for _, s := range []*Store{lone, a, b} {
		if got := Recover(s.Name(), logOf(s.Log().Records()), nil).Snapshot(); !sameState(got, s.Snapshot()) {
			t.Errorf("%s: recovered %v, live %v", s.Name(), got, s.Snapshot())
		}
		if v := s.Snapshot()[key]; !v.Equal(last) {
			t.Errorf("%s: %s = %v, want %v", s.Name(), key, v, last)
		}
	}
}
