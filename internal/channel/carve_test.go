package channel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/naming"
	"repro/internal/values"
)

// These tests pin who owns a call's results once Invoke returns them: the
// caller, for good. A reply of a few flat values is copied into a region
// carved from a shared chunk of 80 values (wire.CloneValues); any other
// reply gets a slice of its own.

// carveServant answers each operation with a fixed shape of results.
type carveServant struct{}

func (carveServant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	switch op {
	case "Echo":
		return "OK", args, nil
	case "None":
		return "OK", nil, nil
	case "Fail":
		return "", nil, errors.New("refused")
	case "Record":
		return "OK", []values.Value{values.Record(values.F("n", values.Int(1)))}, nil
	case "Seq":
		return "OK", []values.Value{values.Seq(values.Int(1), values.Int(2))}, nil
	case "Long":
		return "OK", []values.Value{values.Str(strings.Repeat("x", 65))}, nil
	case "IntAndRecord":
		return "OK", []values.Value{values.Int(1), values.Record(values.F("n", values.Int(1)))}, nil
	case "NineInts":
		nine := make([]values.Value, 9)
		for i := range nine {
			nine[i] = values.Int(9)
		}
		return "OK", nine, nil
	}
	return "", nil, fmt.Errorf("unhandled op %q", op)
}

// carveEnv serves a carveServant untyped and binds one client to it.
func carveEnv(t *testing.T) (*testEnv, naming.InterfaceRef, *Binding) {
	t.Helper()
	env := newEnv(t, ServerConfig{})
	id := ifaceID(93)
	if err := env.server.Register(id, nil, carveServant{}); err != nil {
		t.Fatal(err)
	}
	ref := naming.InterfaceRef{ID: id, Endpoint: "sim://server"}
	b, err := Bind(ref, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return env, ref, b
}

// echo invokes Echo with args and fails the test unless the results equal
// them.
func echo(t *testing.T, b *Binding, args ...values.Value) []values.Value {
	t.Helper()
	term, res, err := b.Invoke(context.Background(), "Echo", args)
	if err != nil || term != "OK" || !slices.EqualFunc(res, args, values.Value.Equal) {
		t.Fatalf("Echo%v = %q %v, %v", args, term, res, err)
	}
	return res
}

// TestCarvedResultsRace: eight bindings on one session make 10,000 calls
// at once, each appending to every result it gets, as a careless caller
// would, and keeping every 97th. Every kept result must still read as it
// was answered at the end: no region is written by a neighbour's append
// or handed out twice.
func TestCarvedResultsRace(t *testing.T) {
	env, ref, _ := carveEnv(t)
	mgr := NewSessionManager(env.net)
	defer mgr.Close()
	const bindings, calls, every = 8, 10_000, 97
	var wg sync.WaitGroup
	errs := make(chan error, bindings)
	for g := 0; g < bindings; g++ {
		b, err := Bind(ref, BindConfig{Sessions: mgr})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kept, want [][]values.Value
			for i := 0; i < calls/bindings; i++ {
				args := []values.Value{values.Int(int64(g*calls + i)), values.Str(fmt.Sprintf("b%d-%d", g, i))}
				term, res, err := b.Invoke(context.Background(), "Echo", args)
				if err != nil || term != "OK" || !slices.EqualFunc(res, args, values.Value.Equal) {
					errs <- fmt.Errorf("binding %d call %d: %q %v, %v", g, i, term, res, err)
					return
				}
				if i%every == 0 {
					kept, want = append(kept, res), append(want, args)
				}
				_ = append(res, values.Str("scribble"))
			}
			for i := range kept {
				if !slices.EqualFunc(kept[i], want[i], values.Value.Equal) {
					errs <- fmt.Errorf("binding %d kept result %d reads %v, want %v", g, i, kept[i], want[i])
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

// TestCarvedResultsAppendLeavesNeighbours: a result's capacity is its
// length, so appending to it and writing the appended slice reallocates
// and leaves every other call's results as they were answered.
func TestCarvedResultsAppendLeavesNeighbours(t *testing.T) {
	_, _, b := carveEnv(t)
	const n = 200
	got := make([][]values.Value, n)
	for i := range got {
		got[i] = echo(t, b, values.Int(int64(i)))
	}
	for i, res := range got {
		if cap(res) != len(res) {
			t.Fatalf("result %d: cap %d, len %d", i, cap(res), len(res))
		}
		grown := append(res, values.Int(-1), values.Int(-2))
		grown[0] = values.Int(-3)
	}
	for i, res := range got {
		if len(res) != 1 || !res[0].Equal(values.Int(int64(i))) {
			t.Fatalf("result %d reads %v after the appends, want [%d]", i, res, i)
		}
	}
}

// TestCarvedResultsOnlyFlat: only a reply of at most 8 flat values is
// carved. Between two carved one-value results, a call whose results are
// not carved takes no region, so the second result is carved right after
// the first (a call whose results were carved would sit between them).
// Each shape is tried ten times, so a chunk boundary falling between the
// two is not mistaken for a miss.
func TestCarvedResultsOnlyFlat(t *testing.T) {
	_, _, b := carveEnv(t)
	const size = unsafe.Sizeof(values.Value{})
	for _, op := range []string{"Record", "Seq", "Long", "IntAndRecord", "NineInts"} {
		adjacent := 0
		for try := 0; try < 10; try++ {
			first := echo(t, b, values.Int(1))
			if term, res, err := b.Invoke(context.Background(), op, nil); err != nil || term != "OK" || len(res) == 0 {
				t.Fatalf("%s = %q %v, %v", op, term, res, err)
			}
			second := echo(t, b, values.Int(2))
			switch uintptr(unsafe.Pointer(&second[0])) - uintptr(unsafe.Pointer(&first[0])) {
			case size:
				adjacent++
			case 2 * size:
				t.Fatalf("%s's result was carved between two flat results", op)
			}
		}
		if adjacent == 0 {
			t.Errorf("%s: no two flat results were carved side by side in 10 tries", op)
		}
	}
}

// TestCarvedResultsPinOneChunk: a result a caller keeps pins the one
// 3,200 B chunk of 80 values it was carved from and no more. Eight
// results kept from calls 800 apart, with everything else dropped, keep
// eight chunks live: a heap no larger than that, give or take 16 KiB. (A
// chunk of 160 values would keep 51,200 B.)
func TestCarvedResultsPinOneChunk(t *testing.T) {
	_, _, b := carveEnv(t)
	const keep, every = 8, 800
	const chunk, slack = 3_200, 16 << 10 // the stated bound, not wire's constant
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a second cycle empties the pools' victim caches
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	kept := make([][]values.Value, 0, keep)
	for i := 0; i < every; i++ { // warm the session, the pools and the carver
		echo(t, b, values.Int(int64(i)))
	}
	before := live()
	for i := 0; i < keep*every; i++ {
		if res := echo(t, b, values.Int(int64(i))); i%every == 0 {
			kept = append(kept, res)
		}
	}
	after := live()
	if grown, bound := int64(after)-int64(before), int64(keep*chunk+slack); grown > bound {
		t.Errorf("%d kept results hold %d B live, bound %d", keep, grown, bound)
	}
	for i, res := range kept {
		if !res[0].Equal(values.Int(int64(i * every))) {
			t.Fatalf("kept result %d reads %v", i, res)
		}
	}
}

// TestCarvedResultsErrAndEmpty: an error reply returns no results and a
// *RemoteError, and a reply with no results returns nil results,
// allocating nothing for them.
func TestCarvedResultsErrAndEmpty(t *testing.T) {
	_, _, b := carveEnv(t)
	ctx := context.Background()
	var re *RemoteError
	if term, res, err := b.Invoke(ctx, "Fail", nil); term != "" || res != nil || !errors.As(err, &re) {
		t.Errorf("Fail = %q %v, %v; want no termination, nil results and a *RemoteError", term, res, err)
	}
	none := func() {
		if term, res, err := b.Invoke(ctx, "None", nil); err != nil || term != "OK" || res != nil {
			t.Fatalf("None = %q %#v, %v; want OK and nil results", term, res, err)
		}
	}
	none()
	if raceEnabled {
		return // under the race detector sync.Pool drops entries at random
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if allocs := testing.AllocsPerRun(200, none); allocs > 0 {
		t.Errorf("a call with no results = %v allocs, want 0", allocs)
	}
}
