package transactions

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/values"
	"repro/internal/wire"
)

// FileLog is the durable form of the write-ahead log: every record is
// appended to a file (length-prefixed, canonical transfer syntax) and
// synced before Append returns, which is the force-write discipline
// two-phase commit's prepare step requires. OpenFileLog replays an
// existing file, so a store recovered after a crash is
//
//	log, _ := transactions.OpenFileLog(path)
//	store := transactions.Recover("bank", log.Log(), decide)
//
// with the in-memory Log carrying the replayed history and the file
// continuing to receive new records. The file keeps the whole history; the
// store checkpoints only the in-memory mirror, as it does any Log.
type FileLog struct {
	mu   sync.Mutex
	mem  *Log
	file *os.File
}

// OpenFileLog opens (creating if absent) a durable log at path and
// replays its records into memory.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("transactions: open log: %w", err)
	}
	fl := &FileLog{mem: NewLog(), file: f}
	if err := fl.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return fl, nil
}

// Log returns the in-memory view (replayed history plus everything
// appended since), suitable for Recover and InDoubt.
func (fl *FileLog) Log() *Log { return fl.mem }

// Append forces a record to disk and mirrors it in memory.
func (fl *FileLog) Append(r Record) error {
	frame, err := encodeRecord(r)
	if err != nil {
		return err
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(frame)))
	if _, err := fl.file.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("transactions: log write: %w", err)
	}
	if _, err := fl.file.Write(frame); err != nil {
		return fmt.Errorf("transactions: log write: %w", err)
	}
	if err := fl.file.Sync(); err != nil {
		return fmt.Errorf("transactions: log sync: %w", err)
	}
	fl.mem.Append(r)
	return nil
}

// Close releases the file handle.
func (fl *FileLog) Close() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.file.Close()
}

// replay loads existing records. A truncated trailing record (torn write
// during a crash) is tolerated: replay stops there, matching standard WAL
// recovery semantics.
func (fl *FileLog) replay() error {
	if _, err := fl.file.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(fl.file, lenBuf[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			return fmt.Errorf("transactions: log replay: %w", err)
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		frame := make([]byte, n)
		if _, err := io.ReadFull(fl.file, frame); err != nil {
			break // torn record: stop replay here
		}
		r, err := decodeRecord(frame)
		if err != nil {
			break // corrupt tail
		}
		fl.mem.Append(r)
	}
	// Position at the end for subsequent appends.
	_, err := fl.file.Seek(0, io.SeekEnd)
	return err
}

// encodeRecord serialises a record with the canonical transfer syntax.
func encodeRecord(r Record) ([]byte, error) {
	writes := make([]values.Value, len(r.Writes))
	for i, w := range r.Writes {
		writes[i] = values.Record(
			values.F("key", values.Str(w.Key)),
			values.F("value", values.Any(values.TypeOf(w.Value), w.Value)),
			values.F("delete", values.Bool(w.Delete)),
		)
	}
	v := values.Record(
		values.F("kind", values.Uint(uint64(r.Kind))),
		values.F("tx", values.Uint(r.TxID)),
		values.F("writes", values.Seq(writes...)),
	)
	return wire.Canonical.AppendValue(nil, v)
}

// decodeRecord is the inverse of encodeRecord.
func decodeRecord(frame []byte) (Record, error) {
	v, n, err := wire.Canonical.ReadValue(frame, 0)
	if err != nil {
		return Record{}, err
	}
	if n != len(frame) {
		return Record{}, fmt.Errorf("%w: trailing bytes", ErrBadLog)
	}
	kindV, ok := v.FieldByName("kind")
	if !ok {
		return Record{}, fmt.Errorf("%w: missing kind", ErrBadLog)
	}
	kind, _ := kindV.AsUint()
	txV, ok := v.FieldByName("tx")
	if !ok {
		return Record{}, fmt.Errorf("%w: missing tx", ErrBadLog)
	}
	tx, _ := txV.AsUint()
	r := Record{Kind: RecordKind(kind), TxID: tx}
	if wsV, ok := v.FieldByName("writes"); ok && wsV.Kind() == values.KindSeq {
		for i := 0; i < wsV.Len(); i++ {
			wv := wsV.ElemAt(i)
			keyV, ok := wv.FieldByName("key")
			if !ok {
				return Record{}, fmt.Errorf("%w: write %d missing key", ErrBadLog, i)
			}
			key, _ := keyV.AsString()
			valV, ok := wv.FieldByName("value")
			if !ok {
				return Record{}, fmt.Errorf("%w: write %d missing value", ErrBadLog, i)
			}
			var val values.Value
			if _, inner, isAny := valV.AsAny(); isAny {
				val = inner
			} else {
				val = valV
			}
			delV, _ := wv.FieldByName("delete")
			del, _ := delV.AsBool()
			r.Writes = append(r.Writes, WriteOp{Key: key, Value: val, Delete: del})
		}
	}
	return r, nil
}

// NewDurableStore creates a store whose WAL is forced to the file at
// path; the returned FileLog must be closed by the caller. The store's
// in-memory committed state starts empty — use RecoverDurable to also
// replay history.
func NewDurableStore(name, path string) (*Store, *FileLog, error) {
	fl, err := OpenFileLog(path)
	if err != nil {
		return nil, nil, err
	}
	s := NewStore(name, fl.mem)
	s.forced = fl
	return s, fl, nil
}

// RecoverDurable rebuilds a store from the durable log at path, replaying
// committed transactions and resolving in-doubt ones via decide, then
// keeps logging to the same file.
func RecoverDurable(name, path string, decide func(txID uint64) bool) (*Store, *FileLog, error) {
	fl, err := OpenFileLog(path)
	if err != nil {
		return nil, nil, err
	}
	s := recoverInto(name, fl.mem, decide, fl)
	return s, fl, nil
}
