package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/values"
)

// flowBatchFrame encodes one FlowBatch of n bytes elements of size bytes
// each, element i filled with byte i.
func flowBatchFrame(t testing.TB, n, size int) []byte {
	t.Helper()
	m := &Message{Kind: FlowBatch, BindingID: 4, Operation: "elems", Correlation: 0x51}
	for i := 0; i < n; i++ {
		m.Args = append(m.Args, values.BytesVal(bytes.Repeat([]byte{byte(i)}, size)))
	}
	frame, err := m.EncodeAppend(nil, Native)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// decodeWarm returns a function that decodes frame into one message of
// its own and resets it, as Decode and PutMessage do through the message
// pool, which under the race detector drops entries at random. It fails
// the test unless the message has want arguments.
func decodeWarm(t *testing.T, frame []byte, want int) func() {
	m := new(Message)
	return func() {
		if err := m.decode(frame); err != nil || len(m.Args) != want {
			t.Fatalf("decode = %d args, %v; want %d", len(m.Args), err, want)
		}
		m.reset()
	}
}

// bytesPerRun is what one run of f allocates, in bytes, over 200 runs
// after one to warm up.
func bytesPerRun(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 200
}

// carvedTail is how much of the current chunk is left to carve.
func carvedTail() int {
	carver.mu.Lock()
	defer carver.mu.Unlock()
	return len(carver.tail)
}

// TestFlowBatchDecodeAllocBudget is the absolute floor under
// stream_credit's allocs_per_op: a FlowBatch of 32 elements of 1 KiB,
// decoded into a warm message, fills one 32 KiB chunk and allocates
// nothing else, where an allocation per element made it 32. Only stream
// elements are carved: a Call's bytes argument, which a servant may keep,
// and an element over 4 KiB each still get an allocation of their own.
// The budgets hold under -race too: the message is the test's own.
func TestFlowBatchDecodeAllocBudget(t *testing.T) {
	t.Run("flow batch", func(t *testing.T) {
		decode := decodeWarm(t, flowBatchFrame(t, 32, 1024), 32)
		if allocs := testing.AllocsPerRun(200, decode); allocs > 2 {
			t.Errorf("FlowBatch of 32 x 1 KiB = %v allocs, budget 2", allocs)
		}
		if b := bytesPerRun(decode); b > 33_000 {
			t.Errorf("FlowBatch of 32 x 1 KiB = %.0f B, budget 33,000", b)
		}
	})
	t.Run("call", func(t *testing.T) {
		m := &Message{Kind: Call, BindingID: 4, Operation: "Put",
			Args: []values.Value{values.BytesVal(bytes.Repeat([]byte{7}, 1024))}}
		frame, err := m.EncodeAppend(nil, Native)
		if err != nil {
			t.Fatal(err)
		}
		decode := decodeWarm(t, frame, 1)
		decode()
		tail := carvedTail()
		if allocs := testing.AllocsPerRun(200, decode); allocs != 1 {
			t.Errorf("Call with a 1 KiB argument = %v allocs, want its own 1", allocs)
		}
		if b := bytesPerRun(decode); b != 1024 {
			t.Errorf("Call with a 1 KiB argument = %.0f B, want its own 1,024", b)
		}
		if carvedTail() != tail {
			t.Error("a Call's argument was carved")
		}
	})
	t.Run("over 4 KiB", func(t *testing.T) {
		decode := decodeWarm(t, flowBatchFrame(t, 1, carveMax+1), 1)
		decode()
		tail := carvedTail()
		if allocs := testing.AllocsPerRun(200, decode); allocs != 1 {
			t.Errorf("FlowBatch of one %d B element = %v allocs, want its own 1", carveMax+1, allocs)
		}
		if carvedTail() != tail {
			t.Errorf("an element of %d B was carved", carveMax+1)
		}
	})
}

// TestCarvedPayloadsRace: eight goroutines decode FlowBatch frames of
// elements of assorted sizes at once, carving from the shared chunks, and
// hand each frame back to the pool as soon as it is decoded, where the next
// encode overwrites it. Every element kept must still read back as sent
// (its CRC holds), and every carved one must start on an 8-byte boundary.
func TestCarvedPayloadsRace(t *testing.T) {
	const goroutines, frames, perFrame = 8, 40, 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			var kept []values.Value
			for f := 0; f < frames; f++ {
				m := &Message{Kind: FlowBatch, BindingID: uint64(g), Operation: "elems"}
				for i := 0; i < perFrame; i++ {
					m.Args = append(m.Args, values.BytesVal(crcElem(r, 4+r.Intn(carveMax+64))))
				}
				frame, err := m.EncodeAppend(GetFrame(m.SizeHint()), Canonical)
				if err != nil {
					errs <- err
					return
				}
				d, err := Decode(frame)
				PutFrame(frame)
				if err != nil {
					errs <- err
					return
				}
				kept = append(kept, d.Args...)
				PutMessage(d)
			}
			for i, v := range kept {
				b, _ := v.BytesView()
				if len(b) <= carveMax && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 != 0 {
					errs <- fmt.Errorf("goroutine %d element %d: carved at an unaligned address", g, i)
					return
				}
				if n := len(b) - 4; crc32.ChecksumIEEE(b[:n]) != binary.BigEndian.Uint32(b[n:]) {
					errs <- fmt.Errorf("goroutine %d element %d (%d B): CRC mismatch", g, i, len(b))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// crcElem is n random bytes whose last four are the CRC-32 of the rest.
func crcElem(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b[:n-4])
	binary.BigEndian.PutUint32(b[n-4:], crc32.ChecksumIEEE(b[:n-4]))
	return b
}

// TestCarvedElementPinsOneChunk: an element a consumer keeps pins the one
// 32 KiB chunk it was carved from and no more. Eight elements kept from
// frames 256 elements apart, with everything else dropped, keep eight
// chunks live: a heap no larger than that, give or take 16 KiB.
func TestCarvedElementPinsOneChunk(t *testing.T) {
	const keep, every = 8, 8
	const chunk, slack = 32 << 10, 16 << 10 // the stated bound, not carveChunk
	frame := flowBatchFrame(t, 32, 1024)
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a second cycle empties the message pool's victim cache
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	kept := make([]values.Value, 0, keep)
	carveBytes([]byte{1}) // the carver holds a chunk before and after
	before := live()
	for f := 0; f < keep*every; f++ {
		m, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if f%every == 0 {
			kept = append(kept, m.Args[f%32])
		}
		PutMessage(m)
	}
	after := live()
	if grown, bound := int64(after)-int64(before), int64(keep*chunk+slack); grown > bound {
		t.Errorf("%d kept elements hold %d B live, bound %d", keep, grown, bound)
	}
	for i, v := range kept {
		if b, _ := v.BytesView(); len(b) != 1024 || b[0] != byte(i*every%32) {
			t.Fatalf("kept element %d reads %d B of %d", i, len(b), b[0])
		}
	}
}
