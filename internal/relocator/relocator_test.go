package relocator

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/naming"
)

func ref(nonce uint64, ep naming.Endpoint, epoch uint64) naming.InterfaceRef {
	return naming.InterfaceRef{
		ID: naming.InterfaceID{
			Object: naming.ObjectID{
				Cluster: naming.ClusterID{Capsule: naming.CapsuleID{Node: "a", Seq: 1}, Seq: 1},
				Seq:     1,
			},
			Seq:   1,
			Nonce: nonce,
		},
		TypeName: "BankTeller",
		Endpoint: ep,
		Epoch:    epoch,
	}
}

func TestRegisterLookup(t *testing.T) {
	r := New()
	in := ref(1, "sim://alpha", 0)
	if err := r.Register(in); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup(in.ID)
	if err != nil || got != in {
		t.Errorf("Lookup = %+v, %v", got, err)
	}
	if st := r.Stats(); st != (Stats{Lookups: 1}) {
		t.Errorf("stats = %+v", st)
	}
}

func TestLookupUnknown(t *testing.T) {
	r := New()
	if _, err := r.Lookup(ref(9, "", 0).ID); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v", err)
	}
	if misses := r.Stats().Misses; misses != 1 {
		t.Errorf("misses = %d", misses)
	}
}

func TestRegisterZeroRef(t *testing.T) {
	r := New()
	if err := r.Register(naming.InterfaceRef{}); err == nil {
		t.Error("zero ref should be rejected")
	}
}

func TestMoveBumpsEpoch(t *testing.T) {
	r := New()
	in := ref(1, "sim://alpha", 0)
	if err := r.Register(in); err != nil {
		t.Fatal(err)
	}
	moved, err := r.Move(in.ID, "sim://beta")
	if err != nil {
		t.Fatal(err)
	}
	if moved.Endpoint != "sim://beta" || moved.Epoch != 1 {
		t.Errorf("moved = %+v", moved)
	}
	got, err := r.Lookup(in.ID)
	if err != nil || got != moved {
		t.Errorf("Lookup after move = %+v, %v", got, err)
	}
	if _, err := r.Move(ref(99, "", 0).ID, "sim://x"); !errors.Is(err, ErrUnknown) {
		t.Errorf("move unknown = %v", err)
	}
	if relocs := r.Stats().Relocates; relocs != 1 {
		t.Errorf("relocates = %d", relocs)
	}
}

func TestStaleRegistrationRejected(t *testing.T) {
	r := New()
	in := ref(1, "sim://alpha", 0)
	if err := r.Register(in); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Move(in.ID, "sim://beta"); err != nil {
		t.Fatal(err)
	}
	// A delayed re-registration from the old home (epoch 0) must lose.
	if err := r.Register(in); !errors.Is(err, ErrStale) {
		t.Errorf("stale register = %v", err)
	}
	// A registration at the current epoch (e.g. a refresh) is fine.
	cur, _ := r.Lookup(in.ID)
	if err := r.Register(cur); err != nil {
		t.Errorf("refresh register = %v", err)
	}
}

func TestRemove(t *testing.T) {
	r := New()
	in := ref(1, "sim://alpha", 0)
	if err := r.Register(in); err != nil {
		t.Fatal(err)
	}
	r.Remove(in.ID)
	if _, err := r.Lookup(in.ID); !errors.Is(err, ErrUnknown) {
		t.Errorf("lookup after remove = %v", err)
	}
	r.Remove(in.ID) // idempotent
}

func TestEntriesSorted(t *testing.T) {
	r := New()
	a := ref(1, "sim://alpha", 0)
	b := ref(2, "sim://beta", 0)
	if err := r.Register(b); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	es := r.Entries()
	if len(es) != 2 {
		t.Fatalf("entries = %v", es)
	}
	if es[0].ID.String() > es[1].ID.String() {
		t.Error("entries not sorted")
	}
}

func TestSubscribe(t *testing.T) {
	r := New()
	var mu sync.Mutex
	var events []Event
	cancel := r.Subscribe(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	in := ref(1, "sim://alpha", 0)
	if err := r.Register(in); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Move(in.ID, "sim://beta"); err != nil {
		t.Fatal(err)
	}
	r.Remove(in.ID)
	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("events = %d, want 3", n)
	}
	if events[0].Removed || events[1].Removed || !events[2].Removed {
		t.Errorf("event kinds wrong: %+v", events)
	}
	if events[1].Ref.Endpoint != "sim://beta" || events[1].Ref.Epoch != 1 {
		t.Errorf("move event = %+v", events[1])
	}

	cancel()
	if err := r.Register(ref(2, "sim://x", 0)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 3 {
		t.Errorf("events after cancel = %d, want 3", len(events))
	}
}

func TestConcurrentRegisterAndLookup(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := ref(uint64(i+1), "sim://alpha", 0)
			for j := 0; j < 100; j++ {
				if err := r.Register(in); err != nil && !errors.Is(err, ErrStale) {
					t.Errorf("Register: %v", err)
					return
				}
				if _, err := r.Lookup(in.ID); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
				if _, err := r.Move(in.ID, "sim://beta"); err != nil {
					t.Errorf("Move: %v", err)
					return
				}
				in, _ = r.Lookup(in.ID)
			}
		}(i)
	}
	wg.Wait()
}
