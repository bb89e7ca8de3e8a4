package transactions

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mgmt"
	"repro/internal/values"
)

func TestDurableStoreSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bank.wal")
	coord := NewCoordinator()

	store, fl, err := NewDurableStore("bank", path)
	if err != nil {
		t.Fatal(err)
	}
	tx := coord.Begin(context.Background())
	if err := tx.Write(store, "alice", values.Int(77)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(store, "payload", values.Record(
		values.F("note", values.Str("rent")),
		values.F("cents", values.Int(12345)),
	)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// An aborted transaction, never prepared, leaves no record: recovery
	// presumes the abort.
	tx2 := coord.Begin(context.Background())
	if err := tx2.Write(store, "alice", values.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart the process": recover purely from the file.
	recovered, fl2, err := RecoverDurable("bank", path, func(txID uint64) bool {
		committed, _ := coord.Decided(txID)
		return committed
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	snap := recovered.Snapshot()
	if v, ok := snap["alice"]; !ok || !v.Equal(values.Int(77)) {
		t.Errorf("alice = %v", snap["alice"])
	}
	if v, ok := snap["payload"]; !ok {
		t.Error("payload missing")
	} else if note, _ := v.FieldByName("note"); !note.Equal(values.Str("rent")) {
		t.Errorf("payload = %v", v)
	}

	// And the recovered store keeps logging durably.
	tx3 := coord.Begin(context.Background())
	if err := tx3.Write(recovered, "bob", values.Int(5)); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	fl2.Close()
	again, fl3, err := RecoverDurable("bank", path, func(txID uint64) bool {
		committed, _ := coord.Decided(txID)
		return committed
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl3.Close()
	if v, ok := again.Snapshot()["bob"]; !ok || !v.Equal(values.Int(5)) {
		t.Errorf("bob after second restart = %v", v)
	}
}

func TestFileLogInDoubtResolution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "indoubt.wal")
	coord := NewCoordinator()
	store, fl, err := NewDurableStore("s", path)
	if err != nil {
		t.Fatal(err)
	}
	tx := coord.Begin(context.Background())
	if err := tx.Write(store, "x", values.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Prepared but never decided: the crash window of 2PC.
	if _, err := store.Prepare(tx.ID()); err != nil {
		t.Fatal(err)
	}
	fl.Close()

	if got, _, err := RecoverDurable("s", path, func(uint64) bool { return false }); err != nil {
		t.Fatal(err)
	} else if _, ok := got.Snapshot()["x"]; ok {
		t.Error("presumed-abort tx must not apply")
	}
}

func TestFileLogToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	coord := NewCoordinator()
	store, fl, err := NewDurableStore("s", path)
	if err != nil {
		t.Fatal(err)
	}
	tx := coord.Begin(context.Background())
	if err := tx.Write(store, "x", values.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	fl.Close()

	// Simulate a torn write: append garbage length prefix + partial data.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, fl2, err := RecoverDurable("s", path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if v, ok := recovered.Snapshot()["x"]; !ok || !v.Equal(values.Int(1)) {
		t.Errorf("state after torn tail = %v", recovered.Snapshot())
	}
}

// TestFileLogAppendsAfterTornTail: a restart over a torn tail cuts it off,
// so a record forced after the restart follows the last whole one and the
// next restart replays both.
func TestFileLogAppendsAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	fl, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Append(Record{Kind: RecCommit, TxID: 1, Writes: []WriteOp{{Key: "x", Value: values.Int(1)}}}); err != nil {
		t.Fatal(err)
	}
	fl.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fl, err = OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Append(Record{Kind: RecCommit, TxID: 2, Writes: []WriteOp{{Key: "y", Value: values.Int(2)}}}); err != nil {
		t.Fatal(err)
	}
	fl.Close()
	fl, err = OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if recs := fl.Log().Records(); len(recs) != 2 || recs[0].TxID != 1 || recs[1].TxID != 2 {
		t.Fatalf("after a torn tail and one more append the log holds %+v, want transactions 1 and 2", recs)
	}
}

// TestRecoverOnePhaseCommitFromFile: a durable lone store commits in one
// phase — one forced record per writing transaction, none for a read or an
// abort, no decision — and a restart redoes those records. A commit whose
// record cannot be forced is a veto: the transaction aborts, its writes
// are nowhere, its locks are free, and no later replay sees it.
func TestRecoverOnePhaseCommitFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lone.wal")
	c := NewCoordinator()
	m := mgmt.New()
	ins := m.Tx("lone")
	c.Instrument(ins)
	store, fl, err := NewDurableStore("lone", path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(s *Store, key string, v int64) error {
		return c.Atomically(ctxT(), func(tx *Tx) error { return tx.Write(s, key, values.Int(v)) })
	}
	for i, key := range []string{"a", "b", "a"} {
		if err := write(store, key, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := write(store, "b", 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Atomically(ctxT(), func(tx *Tx) error {
		_, err := tx.Read(store, "a")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Atomically(ctxT(), func(tx *Tx) error {
		_ = tx.Write(store, "a", values.Int(99))
		return errors.New("application abort")
	}); err == nil {
		t.Fatal("an application error committed")
	}
	recs := store.Log().Records()
	if len(recs) != 4 {
		t.Fatalf("log = %+v, want four one-phase commit records", recs)
	}
	for _, r := range recs {
		if r.Kind != RecCommit || len(r.Writes) != 1 {
			t.Fatalf("record %+v, want a one-phase commit of one write", r)
		}
	}
	if n := decisionCount(c); n != 0 {
		t.Fatalf("one-phase commits left %d decisions", n)
	}

	fl.Close() // the next record cannot be forced
	var id uint64
	err = c.Atomically(ctxT(), func(tx *Tx) error { id = tx.ID(); return tx.Write(store, "c", values.Int(3)) })
	if !errors.Is(err, ErrVetoed) {
		t.Fatalf("commit with an unforced record = %v, want ErrVetoed", err)
	}
	if n := ins.Vetoes.Load(); n != 1 {
		t.Fatalf("vetoes = %d, want 1", n)
	}
	if _, ok := store.Snapshot()["c"]; ok || store.lm.heldKeys(id) != 0 || len(store.lm.locks) != 0 {
		t.Fatalf("a vetoed one-phase commit left its write or its locks: %v, %v", store.Snapshot(), store.lm.locks)
	}

	recovered, fl2, err := RecoverDurable("lone", path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	want := map[string]values.Value{"a": values.Int(2), "b": values.Int(3)}
	if got := recovered.Snapshot(); !sameState(got, want) || !sameState(store.Snapshot(), want) {
		t.Fatalf("recovered %v, live %v, want %v", got, store.Snapshot(), want)
	}
}

func TestOpenFileLogBadPath(t *testing.T) {
	if _, err := OpenFileLog(filepath.Join(t.TempDir(), "no", "such", "dir", "x.wal")); err == nil {
		t.Error("expected error for unreachable path")
	}
	if _, _, err := NewDurableStore("s", "/dev/null/nope"); err == nil {
		t.Error("expected error")
	}
	if _, _, err := RecoverDurable("s", "/dev/null/nope", nil); err == nil {
		t.Error("expected error")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: RecPrepare, TxID: 7, Writes: []WriteOp{
			{Key: "a", Value: values.Int(1)},
			{Key: "b", Value: values.Str("x")},
			{Key: "c", Value: values.Bool(true)},
		}},
		{Kind: RecCommit, TxID: 7},
		{Kind: RecAbort, TxID: 9},
	}
	for _, r := range recs {
		frame, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRecord(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != r.Kind || got.TxID != r.TxID || len(got.Writes) != len(r.Writes) {
			t.Errorf("round trip: %+v vs %+v", got, r)
		}
		for i := range r.Writes {
			if got.Writes[i].Key != r.Writes[i].Key {
				t.Errorf("write %d: %+v vs %+v", i, got.Writes[i], r.Writes[i])
			}
			if !got.Writes[i].Value.Equal(r.Writes[i].Value) {
				t.Errorf("write %d value: %v vs %v", i, got.Writes[i].Value, r.Writes[i].Value)
			}
		}
	}
	if _, err := decodeRecord([]byte{0xff}); err == nil {
		t.Error("garbage frame should fail")
	}
}

// TestFileLogLogMirrorsFile: the in-memory view holds what was appended,
// and a reopened log replays the file into it and keeps appending.
func TestFileLogLogMirrorsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mirror.wal")
	fl, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := fl.Log().Len(); n != 0 {
		t.Fatalf("fresh log holds %d records", n)
	}
	for _, r := range []Record{
		{Kind: RecPrepare, TxID: 1, Writes: []WriteOp{{Key: "a", Value: values.Int(1)}}},
		{Kind: RecCommit, TxID: 1},
	} {
		if err := fl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if recs := fl.Log().Records(); len(recs) != 2 || recs[0].Kind != RecPrepare || recs[1].Kind != RecCommit {
		t.Fatalf("in-memory records = %+v", recs)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	fl2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if err := fl2.Append(Record{Kind: RecAbort, TxID: 2}); err != nil {
		t.Fatal(err)
	}
	recs := fl2.Log().Records()
	if len(recs) != 3 || recs[0].TxID != 1 || len(recs[0].Writes) != 1 || recs[2].Kind != RecAbort || recs[2].TxID != 2 {
		t.Fatalf("replayed records = %+v", recs)
	}
}
