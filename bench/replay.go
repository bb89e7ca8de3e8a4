package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/constraint"
	"repro/internal/hashring"
	"repro/internal/transactions"
	"repro/internal/values"
	"repro/internal/wire"
)

// Replays: layers that the run crosses inside another layer's span — the
// codec inside the channel, the buffer pool inside the codec and the
// transport, the transaction function inside the servant — are measured
// alone, on the inputs the run captured, through their public functions.
// Each replay is short (about a tenth of a second) and single-threaded
// unless it says otherwise.

const replayFor = 100 * time.Millisecond

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayWire decodes and re-encodes the captured request and reply frames.
func replayWire(reqs, reps [][]byte) metrics {
	frames := append(append([][]byte(nil), reqs...), reps...)
	if len(frames) == 0 {
		return nil
	}
	var bytes int
	for _, f := range frames {
		bytes += len(f)
	}
	var decNs, encNs int64
	var msgs int64
	m0 := mallocs()
	for start := time.Now(); time.Since(start) < replayFor; {
		for _, f := range frames {
			t0 := time.Now()
			m, err := wire.Decode(f)
			t1 := time.Now()
			if err != nil {
				continue
			}
			codec, err := wire.ByID(m.Codec)
			if err != nil {
				wire.PutMessage(m)
				continue
			}
			buf, err := m.EncodeAppend(wire.GetFrame(m.SizeHint()), codec)
			t2 := time.Now()
			if err == nil {
				wire.PutFrame(buf)
			}
			wire.PutMessage(m)
			decNs += int64(t1.Sub(t0))
			encNs += int64(t2.Sub(t1))
			msgs++
		}
	}
	m1 := mallocs()
	if msgs == 0 {
		return nil
	}
	return metrics{
		"wire.decode_ns_per_msg": float64(decNs) / float64(msgs),
		"wire.encode_ns_per_msg": float64(encNs) / float64(msgs),
		"wire.allocs_per_msg":    float64(m1-m0) / float64(msgs),
		"wire.bytes_per_msg":     float64(bytes) / float64(len(frames)),
	}
}

// replayFrames adds the wire and bufpool replays of the frames a traced
// run captured.
func replayFrames(tr *tracer, m metrics) {
	for k, v := range replayWire(tr.reqFrames, tr.repFrames) {
		m[k] = v
	}
	var sizes []int
	for _, set := range [][][]byte{tr.reqFrames, tr.repFrames} {
		for _, f := range set {
			sizes = append(sizes, len(f))
		}
	}
	if len(sizes) > 0 {
		m["bufpool.get_put_ns"] = replayBufpool(sizes)
	}
}

// replayBufpool takes and returns buffers of the run's frame sizes from
// GOMAXPROCS goroutines at once — the pool is shared by every session of
// the process — and returns the mean ns of one Get+Put.
func replayBufpool(sizes []int) float64 {
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 200_000
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				bufpool.Put(bufpool.Get(sizes[(i+w)%len(sizes)]))
			}
		}(w)
	}
	wg.Wait()
	// Wall time per operation of one worker: contention shows as a rise.
	return float64(time.Since(t0).Nanoseconds()) / perWorker
}

// replayTransactions runs the branch's transactions — a read, and for the
// given share a read-modify-write — against a store of the bench's own and
// returns the mean microseconds and allocations of one.
func replayTransactions(writeShare float64) (us, allocs float64) {
	coord := transactions.NewCoordinator()
	store := transactions.NewStore("replay", nil)
	ctx := context.Background()
	record := func(balance int64) values.Value {
		return values.Record(
			values.F("balance", values.Int(balance)),
			values.F("withdrawn_today", values.Int(0)),
			values.F("open", values.Bool(true)),
			values.F("owner", values.Str("replay")),
		)
	}
	const key = "acct/replay"
	if err := coord.Atomically(ctx, func(tx *transactions.Tx) error {
		return tx.Write(store, key, record(0))
	}); err != nil {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(1))
	var n int64
	m0 := mallocs()
	start := time.Now()
	for time.Since(start) < replayFor {
		for i := 0; i < 256; i++ {
			write := rng.Float64() < writeShare
			_ = coord.Atomically(ctx, func(tx *transactions.Tx) error {
				v, err := tx.Read(store, key)
				if err != nil || !write {
					return err
				}
				bal, _ := v.FieldByName("balance")
				b, _ := bal.AsInt()
				return tx.Write(store, key, record(b+1))
			})
			n++
		}
	}
	elapsed := time.Since(start)
	m1 := mallocs()
	return float64(elapsed.Microseconds()) / float64(n), float64(m1-m0) / float64(n)
}

// importReplay is one captured import: its constraint and the properties
// of the offers it had to consider.
type importReplay struct {
	constraint string
	props      []values.Value
}

// replayConstraint parses each captured constraint and evaluates it over
// the offers its import considered; it returns the mean microseconds per
// import.
func replayConstraint(reqs []importReplay) float64 {
	if len(reqs) == 0 {
		return 0
	}
	var n int64
	start := time.Now()
	for time.Since(start) < replayFor {
		for _, r := range reqs {
			expr, err := constraint.Parse(r.constraint)
			if err != nil {
				continue
			}
			for _, p := range r.props {
				_, _ = expr.Matches(p)
			}
			n++
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n)
}

// replayHashring looks the captured service types up on a ring with the
// run's members and returns the mean ns of one lookup.
func replayHashring(members, keys []string) float64 {
	if len(keys) == 0 {
		return 0
	}
	ring := hashring.New(0)
	for _, m := range members {
		if err := ring.Add(m); err != nil {
			return 0
		}
	}
	var n int64
	start := time.Now()
	for time.Since(start) < replayFor {
		for _, k := range keys {
			_ = ring.Owner(k)
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
