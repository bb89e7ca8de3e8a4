package channel

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/naming"
	"repro/internal/values"
)

// These tests pin the borrow rule of every delivery to a servant: the
// argument slice lives in the received message's own buffer, valid until
// the callee returns, and the values in it may be kept. The buffer's spare
// capacity is lent for the servant's results, valid until the reply is
// encoded.

// borrowServant keeps what a careless servant would keep: the args slices
// of its calls and announcements themselves, the results it appended into
// a call's argument buffer, and the values of its Tally announcements
// (which the rule allows).
type borrowServant struct {
	mu      sync.Mutex
	kept    [][]values.Value
	tallied []values.Value
	inPlace atomic.Int64 // Tail calls whose results landed in the argument buffer
}

func (s *borrowServant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	switch op {
	case "Echo":
		return "OK", args, nil
	case "Tail":
		// Two results, computed from the arguments, appended past them.
		name, _ := args[0].AsString()
		n, _ := args[1].AsInt()
		res := append(args[len(args):], values.Str(name+"!"), values.Int(2*n))
		if cap(args)-len(args) >= len(res) {
			s.inPlace.Add(1)
		}
		return "OK", res, nil
	case "KeepResult":
		res := append(args[len(args):], values.Str("kept"))
		s.mu.Lock()
		s.kept = append(s.kept, res)
		s.mu.Unlock()
		return "OK", res, nil
	case "Keep", "KeepNote":
		s.mu.Lock()
		s.kept = append(s.kept, args)
		s.mu.Unlock()
		return "OK", nil, nil
	case "Tally":
		s.mu.Lock()
		s.tallied = append(s.tallied, args...)
		s.mu.Unlock()
		return "", nil, nil
	}
	return "", nil, fmt.Errorf("unhandled op %q", op)
}

func (s *borrowServant) keptCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.kept)
}

// borrowEnv serves a fresh borrowServant untyped.
func borrowEnv(t *testing.T) (*testEnv, *borrowServant, naming.InterfaceRef) {
	t.Helper()
	env := newEnv(t, ServerConfig{})
	s := &borrowServant{}
	id := ifaceID(91)
	if err := env.server.Register(id, nil, s); err != nil {
		t.Fatal(err)
	}
	return env, s, naming.InterfaceRef{ID: id, Endpoint: "sim://server"}
}

// TestBorrowedArgsEchoPipelined: a servant that answers with its args
// slice answers every one of 64 pipelined callers on one session with its
// own arguments — the reply is encoded before the request, and the buffer
// its arguments live in, is recycled.
func TestBorrowedArgsEchoPipelined(t *testing.T) {
	env, _, ref := borrowEnv(t)
	mgr := NewSessionManager(env.net)
	defer mgr.Close()
	const callers, rounds = 64, 20
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		b, err := Bind(ref, BindConfig{Sessions: mgr})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				args := []values.Value{values.Str(fmt.Sprintf("caller-%d", c)), values.Int(int64(c)), values.Int(int64(r))}
				term, res, err := b.Invoke(context.Background(), "Echo", args)
				if err != nil || term != "OK" {
					t.Errorf("caller %d round %d: %q, %v", c, r, term, err)
					return
				}
				if !slices.EqualFunc(res, args, values.Value.Equal) {
					t.Errorf("caller %d round %d: echo = %v, want %v", c, r, res, args)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if st := mgr.Stats(); st.Dials != 1 {
		t.Errorf("manager stats = %+v, want the callers on 1 session", st)
	}
}

// TestBorrowedArgsClearedAfterInvoke: a servant that keeps the args slice
// of a call or an announcement finds it cleared once Invoke has returned:
// the server recycles the request, and recycling zeroes its arguments.
// Closing the server drains its workers, so every recycle has happened
// when the kept slices are read.
func TestBorrowedArgsClearedAfterInvoke(t *testing.T) {
	env, s, ref := borrowEnv(t)
	b, err := Bind(ref, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	args := []values.Value{values.Str("alice"), values.Int(7)}
	if term, _, err := b.Invoke(context.Background(), "Keep", args); err != nil || term != "OK" {
		t.Fatalf("Keep = %q, %v", term, err)
	}
	if err := b.Announce(context.Background(), "KeepNote", args); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.keptCount() == 2 })
	env.server.Close()
	for i, kept := range s.kept {
		if len(kept) != len(args) {
			t.Fatalf("kept slice %d has %d values, want %d", i, len(kept), len(args))
		}
		for j, v := range kept {
			if !reflect.DeepEqual(v, values.Value{}) {
				t.Errorf("kept slice %d: args[%d] = %v after Invoke returned, want the zero Value", i, j, v)
			}
		}
	}
}

// TestBorrowedArgsAnnouncementValuesIntact: a servant that keeps the
// values of an announcement's args (not the slice) keeps them intact across
// the recycling of every announcement's message. Announcements run on the
// server's workers, so they may arrive in any order; each keeps its pair.
func TestBorrowedArgsAnnouncementValuesIntact(t *testing.T) {
	env, s, ref := borrowEnv(t)
	b, err := Bind(ref, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const notes = 200
	for i := 0; i < notes; i++ {
		args := []values.Value{values.Str(fmt.Sprintf("note-%d", i)), values.Int(int64(i))}
		if err := b.Announce(context.Background(), "Tally", args); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.tallied) == 2*notes
	})
	env.server.Close() // every message is recycled once the workers drain
	seen := make([]bool, notes)
	for i := 0; i < len(s.tallied); i += 2 {
		name, _ := s.tallied[i].AsString()
		n, ok := s.tallied[i+1].AsInt()
		if !ok || n < 0 || n >= notes || seen[n] || name != fmt.Sprintf("note-%d", n) {
			t.Fatalf("kept pair %d = %v, %v", i/2, s.tallied[i], s.tallied[i+1])
		}
		seen[n] = true
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Errorf("note-%d never kept", i)
	}
}

// TestBorrowedResultsAppendPipelined: a servant that appends its results
// into the spare capacity of its arguments' buffer answers every one of 64
// pipelined callers on one session with its own results — each reply is
// encoded before its request, and the buffer its results live in, is
// recycled — and every call's results land in that buffer.
func TestBorrowedResultsAppendPipelined(t *testing.T) {
	env, s, ref := borrowEnv(t)
	mgr := NewSessionManager(env.net)
	defer mgr.Close()
	const callers, rounds = 64, 20
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		b, err := Bind(ref, BindConfig{Sessions: mgr})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name, n := fmt.Sprintf("caller-%d", c), int64(c*rounds+r)
				term, res, err := b.Invoke(context.Background(), "Tail", []values.Value{values.Str(name), values.Int(n)})
				if err != nil || term != "OK" {
					t.Errorf("caller %d round %d: %q, %v", c, r, term, err)
					return
				}
				want := []values.Value{values.Str(name + "!"), values.Int(2 * n)}
				if !slices.EqualFunc(res, want, values.Value.Equal) {
					t.Errorf("caller %d round %d: results = %v, want %v", c, r, res, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := s.inPlace.Load(); got != callers*rounds {
		t.Errorf("%d of %d calls appended their results into the argument buffer", got, callers*rounds)
	}
}

// TestBorrowedResultsClearedAfterInvoke: a servant that keeps the results
// it appended into its arguments' buffer, without copying them, finds them
// cleared once Invoke has returned, as a kept args slice is; the caller
// got them intact in the reply. Closing the server drains its workers, so
// the request has been recycled when the kept slice is read.
func TestBorrowedResultsClearedAfterInvoke(t *testing.T) {
	env, s, ref := borrowEnv(t)
	b, err := Bind(ref, BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	term, res, err := b.Invoke(context.Background(), "KeepResult", []values.Value{values.Str("alice")})
	if err != nil || term != "OK" || len(res) != 1 || !res[0].Equal(values.Str("kept")) {
		t.Fatalf("KeepResult = %q %v, %v", term, res, err)
	}
	env.server.Close()
	if len(s.kept) != 1 || len(s.kept[0]) != 1 {
		t.Fatalf("kept = %v, want one slice of one result", s.kept)
	}
	if v := s.kept[0][0]; !reflect.DeepEqual(v, values.Value{}) {
		t.Errorf("kept result = %v after Invoke returned, want the zero Value", v)
	}
}
