package transactions

import (
	"context"
	"os"
	"path/filepath"
	"testing"

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
	// An aborted transaction leaves a durable abort record too.
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
			{Key: "b", Value: values.Str("x"), Delete: false},
			{Key: "c", Delete: true},
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
			if got.Writes[i].Key != r.Writes[i].Key || got.Writes[i].Delete != r.Writes[i].Delete {
				t.Errorf("write %d: %+v vs %+v", i, got.Writes[i], r.Writes[i])
			}
			if !r.Writes[i].Delete && !got.Writes[i].Value.Equal(r.Writes[i].Value) {
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
