package coordination

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/naming"
	"repro/internal/relocator"
)

func wpRef(nonce uint64, ep naming.Endpoint, epoch uint64) naming.InterfaceRef {
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

// locationStore is what every carrier must deliver: the white pages, with
// enumeration.
type locationStore interface {
	relocator.Store
	relocator.Enumerable
}

// locationCarriers is the relocator's conformance table: each row builds
// a store and returns with it every local relocator a write through the
// store must reach (a fail-over group's backups receive no traffic, so
// only its primary is listed).
var locationCarriers = []struct {
	name  string
	build func(t *testing.T) (locationStore, []*relocator.Relocator)
}{
	{"local", func(*testing.T) (locationStore, []*relocator.Relocator) {
		r := relocator.New()
		return r, []*relocator.Relocator{r}
	}},
	{"binding", func(t *testing.T) (locationStore, []*relocator.Relocator) {
		r := relocator.New()
		remote := relocator.NewRemote(loopback(t, relocator.InterfaceType(), &relocator.Servant{R: r}))
		t.Cleanup(func() { remote.Close() })
		return remote, []*relocator.Relocator{r}
	}},
	{"replicagroup", func(t *testing.T) (locationStore, []*relocator.Relocator) {
		r0, r1 := relocator.New(), relocator.New()
		g := replicaGroupOf(t, &relocator.Servant{R: r0}, &relocator.Servant{R: r1})
		return relocator.NewRemote(g), []*relocator.Relocator{r0, r1}
	}},
	{"failovergroup", func(t *testing.T) (locationStore, []*relocator.Relocator) {
		stores := []*relocator.Relocator{relocator.New(), relocator.New()}
		g := NewFailoverGroup()
		for i, name := range []string{"primary", "backup"} {
			if err := g.Add(name, Member(&relocator.Servant{R: stores[i]})); err != nil {
				t.Fatal(err)
			}
		}
		return relocator.NewRemote(g), stores[:1]
	}},
}

// overLocationCarriers runs check once per row of the table.
func overLocationCarriers(t *testing.T, check func(t *testing.T, s locationStore, backing []*relocator.Relocator)) {
	for _, c := range locationCarriers {
		t.Run(c.name, func(t *testing.T) {
			s, backing := c.build(t)
			check(t, s, backing)
		})
	}
}

func TestLocationGroupReplicatesUpdates(t *testing.T) {
	overLocationCarriers(t, func(t *testing.T, s locationStore, backing []*relocator.Relocator) {
		in := wpRef(1, "sim://a", 0)
		if err := s.Register(in); err != nil {
			t.Fatal(err)
		}
		// The write reached every store behind the carrier.
		for i, r := range backing {
			got, err := r.Lookup(in.ID)
			if err != nil || got != in {
				t.Fatalf("store %d = %+v, %v", i, got, err)
			}
		}
		got, err := s.Lookup(in.ID)
		if err != nil || got != in {
			t.Fatalf("lookup = %+v, %v", got, err)
		}
		moved, err := s.Move(in.ID, "sim://b")
		if err != nil || moved.Endpoint != "sim://b" || moved.Epoch != 1 {
			t.Fatalf("move = %+v, %v", moved, err)
		}
		for i, r := range backing {
			got, err := r.Lookup(in.ID)
			if err != nil || got.Epoch != 1 {
				t.Fatalf("store %d after move = %+v, %v", i, got, err)
			}
		}
		// The pre-move snapshot is stale now.
		if err := s.Register(in); !errors.Is(err, relocator.ErrStale) {
			t.Fatalf("stale register = %v", err)
		}
		// Remove is an interrogation: once it returns the entry is gone
		// everywhere, with nothing to poll for.
		s.Remove(in.ID)
		for i, r := range backing {
			if _, err := r.Lookup(in.ID); !errors.Is(err, relocator.ErrUnknown) {
				t.Fatalf("store %d after remove = %v", i, err)
			}
		}
		if _, err := s.Lookup(in.ID); !errors.Is(err, relocator.ErrUnknown) {
			t.Fatalf("lookup after remove = %v", err)
		}
	})
}

func TestLocationGroupStaleSurfacesTyped(t *testing.T) {
	overLocationCarriers(t, func(t *testing.T, s locationStore, _ []*relocator.Relocator) {
		in := wpRef(1, "sim://a", 0)
		if err := s.Register(in); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Move(in.ID, "sim://b"); err != nil {
				t.Fatal(err)
			}
		}
		// Re-registering an epoch-1 snapshot must refuse across the wire
		// vocabulary and still satisfy errors.Is/As at the caller, with
		// both epochs intact (distinct and non-zero, so neither can be a
		// default the proxy filled in).
		old := in
		old.Epoch = 1
		err := s.Register(old)
		if !errors.Is(err, relocator.ErrStale) {
			t.Fatalf("stale register = %v", err)
		}
		var se *relocator.StaleError
		if !errors.As(err, &se) {
			t.Fatalf("err %v does not carry *StaleError", err)
		}
		if se.ID != in.ID || se.Current != 3 || se.Refused != 1 {
			t.Fatalf("stale error = %+v", se)
		}
	})
}

func TestLocationGroupSnapshotAndUnknown(t *testing.T) {
	overLocationCarriers(t, func(t *testing.T, s locationStore, _ []*relocator.Relocator) {
		ghost := wpRef(9, "", 0).ID
		if _, err := s.Lookup(ghost); !errors.Is(err, relocator.ErrUnknown) {
			t.Fatalf("unknown lookup = %v", err)
		}
		if _, err := s.Move(ghost, "sim://x"); !errors.Is(err, relocator.ErrUnknown) {
			t.Fatalf("unknown move = %v", err)
		}
		s.Remove(ghost) // a no-op, not a failure
		for i := 0; i < 5; i++ {
			if err := s.Register(wpRef(uint64(i+1), "sim://a", 0)); err != nil {
				t.Fatal(err)
			}
		}
		refs, err := s.Snapshot()
		if err != nil || len(refs) != 5 {
			t.Fatalf("snapshot = %d refs, %v", len(refs), err)
		}
	})
}

func TestLocationGroupAsShard(t *testing.T) {
	// Whatever carries it, the store slots into the sharded relocator
	// unchanged: a shard can be a whole replica group.
	overLocationCarriers(t, func(t *testing.T, s locationStore, _ []*relocator.Relocator) {
		sh := relocator.NewSharded()
		if err := sh.AddShard("g0", s); err != nil {
			t.Fatal(err)
		}
		if err := sh.AddShard("w1", relocator.New()); err != nil {
			t.Fatal(err)
		}
		const n = 30
		for i := 0; i < n; i++ {
			if err := sh.Register(wpRef(uint64(i+1), "sim://a", 0)); err != nil {
				t.Fatal(err)
			}
		}
		// A further ring change drains registrations in and out of the
		// store via its Snapshot/Register surface.
		if err := sh.AddShard("w2", relocator.New()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := sh.Lookup(wpRef(uint64(i+1), "", 0).ID); err != nil {
				t.Fatalf("lookup %d = %v", i, err)
			}
		}
	})
}

// TestLocationGroupMemberCrash kills one member of a three-member group
// under concurrent movers and readers: every read must keep answering
// (fail-over), and the two survivors must end identical — the moves
// target different endpoints, so any disagreement about their order
// shows as a different final location.
func TestLocationGroupMemberCrash(t *testing.T) {
	replicas := []*relocator.Relocator{relocator.New(), relocator.New(), relocator.New()}
	victim := &flakyInvoker{Invoker: Member(&relocator.Servant{R: replicas[0]})}
	g := NewReplicaGroup()
	if err := g.Add("m0", victim); err != nil {
		t.Fatal(err)
	}
	for i, r := range replicas[1:] {
		if err := g.Add(fmt.Sprintf("m%d", i+1), Member(&relocator.Servant{R: r})); err != nil {
			t.Fatal(err)
		}
	}
	s := relocator.NewRemote(g)
	const ids, movers, moves = 4, 4, 48
	for i := 0; i < ids; i++ {
		if err := s.Register(wpRef(uint64(i+1), "sim://start", 0)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for m := 0; m < movers; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < moves; k++ {
				if m == 0 && k == moves/2 {
					victim.fail.Store(true)
				}
				id := wpRef(uint64(k%ids+1), "", 0).ID
				if _, err := s.Move(id, naming.Endpoint(fmt.Sprintf("sim://m%d-%d", m, k))); err != nil {
					t.Errorf("move during crash: %v", err)
				}
				if _, err := s.Lookup(id); err != nil {
					t.Errorf("lookup during crash: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	if !victim.fail.Load() || g.Size() != 2 {
		t.Fatalf("crashed = %v, group size = %d, want the dead member dropped", victim.fail.Load(), g.Size())
	}
	if st := g.Stats(); st.Divergences != 0 || st.Failovers == 0 {
		t.Fatalf("stats = %+v, want failovers and no divergence", st)
	}
	for i := 0; i < ids; i++ {
		id := wpRef(uint64(i+1), "", 0).ID
		a, errA := replicas[1].Lookup(id)
		b, errB := replicas[2].Lookup(id)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("survivors disagree on %d: %+v (%v) vs %+v (%v)", i, a, errA, b, errB)
		}
		if a.Epoch != movers*moves/ids {
			t.Fatalf("id %d at epoch %d, want every one of its %d moves applied", i, a.Epoch, movers*moves/ids)
		}
	}
}
