package relocator

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hashring"
	"repro/internal/naming"
)

func newShardedStore(t *testing.T, n int) (*Sharded, []*Relocator) {
	t.Helper()
	s := NewSharded()
	stores := make([]*Relocator, n)
	for i := 0; i < n; i++ {
		stores[i] = New()
		if err := s.AddShard(fmt.Sprintf("w%d", i), stores[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s, stores
}

func TestShardedEmpty(t *testing.T) {
	s := NewSharded()
	if err := s.Register(ref(1, "sim://a", 0)); !errors.Is(err, ErrNoShards) {
		t.Fatalf("register on empty ring = %v", err)
	}
	if _, err := s.Lookup(ref(1, "sim://a", 0).ID); !errors.Is(err, ErrNoShards) {
		t.Fatalf("lookup on empty ring = %v", err)
	}
}

func TestShardedRegisterLookupMoveRemove(t *testing.T) {
	s, _ := newShardedStore(t, 3)
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Register(ref(uint64(i+1), "sim://a", 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := s.Lookup(ref(uint64(i+1), "", 0).ID)
		if err != nil || got.Endpoint != "sim://a" {
			t.Fatalf("lookup %d = %+v, %v", i, got, err)
		}
	}
	moved, err := s.Move(ref(1, "", 0).ID, "sim://b")
	if err != nil || moved.Endpoint != "sim://b" || moved.Epoch != 1 {
		t.Fatalf("move = %+v, %v", moved, err)
	}
	s.Remove(ref(2, "", 0).ID)
	if _, err := s.Lookup(ref(2, "", 0).ID); !errors.Is(err, ErrUnknown) {
		t.Fatalf("lookup after remove = %v", err)
	}
	refs, err := s.Snapshot()
	if err != nil || len(refs) != n-1 {
		t.Fatalf("snapshot = %d refs, %v", len(refs), err)
	}
}

func TestShardedAddShardDrains(t *testing.T) {
	s, stores := newShardedStore(t, 2)
	const n = 80
	for i := 0; i < n; i++ {
		if err := s.Register(ref(uint64(i+1), "sim://a", 0)); err != nil {
			t.Fatal(err)
		}
	}
	w2 := New()
	if err := s.AddShard("w2", w2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Lookup(ref(uint64(i+1), "", 0).ID); err != nil {
			t.Fatalf("lookup %d after add: %v", i, err)
		}
	}
	if moved, _ := w2.Snapshot(); len(moved) == 0 {
		t.Fatal("no registrations migrated")
	}
	// No entry is duplicated across shards after the drain settles.
	total := 0
	for _, st := range stores {
		held, _ := st.Snapshot()
		total += len(held)
	}
	refs, _ := s.Snapshot()
	if len(refs) != n || total > n {
		t.Fatalf("snapshot = %d, donor entries = %d", len(refs), total)
	}
}

// TestShardedLookupDuringDrain is the -race guarantee: a registration
// being drained to its new owner answers lookups throughout — from the
// old shard or the new one, never a miss.
func TestShardedLookupDuringDrain(t *testing.T) {
	s, _ := newShardedStore(t, 2)
	const n = 64
	for i := 0; i < n; i++ {
		if err := s.Register(ref(uint64(i+1), "sim://a", 0)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var probes, misses atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for i := 0; i < n; i++ {
					if _, err := s.Lookup(ref(uint64(i+1), "", 0).ID); err != nil {
						misses.Add(1)
					}
					probes.Add(1)
				}
			}
		}()
	}

	waitProbes := func(target uint64) {
		for probes.Load() < target {
			runtime.Gosched()
		}
	}
	waitProbes(1)
	for i := 2; i < 5; i++ {
		if err := s.AddShard(fmt.Sprintf("w%d", i), New()); err != nil {
			t.Fatal(err)
		}
		waitProbes(probes.Load() + n)
	}
	stop.Store(true)
	wg.Wait()

	if misses.Load() != 0 {
		t.Fatalf("%d of %d lookups missed a live registration during rebalance", misses.Load(), probes.Load())
	}
}

func TestShardedDrainFencedByEpoch(t *testing.T) {
	// A client moving its registration forward mid-drain must not be
	// overwritten by the older draining copy: the destination's ErrStale
	// guard refuses it and drain treats that as success.
	s, _ := newShardedStore(t, 2)
	w2 := New()
	// Pick an id whose ownership will move to w2 when it joins.
	next := ringOf(t, "w0", "w1", "w2")
	var in naming.InterfaceRef
	for nonce := uint64(1); ; nonce++ {
		cand := ref(nonce, "sim://old", 0)
		if next.Owner(cand.ID.String()) == "w2" {
			in = cand
			break
		}
	}
	if err := s.Register(in); err != nil {
		t.Fatal(err)
	}
	// The client's re-registration (newer epoch) lands at the new owner
	// before the drain copies the old snapshot over.
	newer := in
	newer.Endpoint = "sim://new"
	newer.Epoch = 5
	if err := w2.Register(newer); err != nil {
		t.Fatal(err)
	}
	if err := s.AddShard("w2", w2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Lookup(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch < 5 || got.Endpoint != "sim://new" {
		t.Fatalf("drain regressed the registration: %+v", got)
	}
}

// ringOf is the ring a front-end over these shards routes by.
func ringOf(t *testing.T, members ...string) *hashring.Ring {
	t.Helper()
	r := hashring.New()
	for _, m := range members {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// gatedStore holds the first registration made at it — a drain's copy —
// until released: the window in which a client call races the drain.
type gatedStore struct {
	*Relocator
	once             sync.Once
	entered, release chan struct{}
}

func (g *gatedStore) Register(ref naming.InterfaceRef) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Relocator.Register(ref)
}

// TestShardedRemoveRacingDrainStaysRemoved: a registration removed after
// the drain read its donor, but before the copy landed at the new owner,
// does not come back there.
func TestShardedRemoveRacingDrainStaysRemoved(t *testing.T) {
	s, _ := newShardedStore(t, 1)
	next := ringOf(t, "w0", "w1")
	var in naming.InterfaceRef
	for nonce := uint64(1); ; nonce++ {
		if in = ref(nonce, "sim://a", 0); next.Owner(in.ID.String()) == "w1" {
			break
		}
	}
	if err := s.Register(in); err != nil {
		t.Fatal(err)
	}
	w1 := &gatedStore{Relocator: New(), entered: make(chan struct{}), release: make(chan struct{})}
	added := make(chan error, 1)
	go func() { added <- s.AddShard("w1", w1) }()
	<-w1.entered
	s.Remove(in.ID)
	close(w1.release)
	if err := <-added; err != nil {
		t.Fatal(err)
	}
	if got, err := s.Lookup(in.ID); !errors.Is(err, ErrUnknown) {
		t.Fatalf("a removed registration is back after the drain: %+v, %v", got, err)
	}
}

func TestStaleErrorCarriesEpochs(t *testing.T) {
	r := New()
	if err := r.Register(ref(1, "sim://a", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Move(ref(1, "", 0).ID, "sim://b"); err != nil {
		t.Fatal(err)
	}
	err := r.Register(ref(1, "sim://a", 0))
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v", err)
	}
	var se *StaleError
	if !errors.As(err, &se) {
		t.Fatalf("err %v does not carry *StaleError", err)
	}
	if se.Current != 1 || se.Refused != 0 {
		t.Fatalf("stale epochs = %+v", se)
	}
}

// TestStaleErrorMessage: the refusal reads as ErrStale and names the
// interface with both epochs, which is what a log line needs.
func TestStaleErrorMessage(t *testing.T) {
	id := ref(7, "", 0).ID
	msg := (&StaleError{ID: id, Current: 3, Refused: 2}).Error()
	want := fmt.Sprintf("%v: %s has epoch 3, refusing epoch 2", ErrStale, id)
	if msg != want {
		t.Fatalf("message = %q, want %q", msg, want)
	}
}
