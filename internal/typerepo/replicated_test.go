package typerepo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/types"
	"repro/internal/values"
)

// variant mints an interface that extends teller() with one unique
// operation, so every variant is structurally a subtype of BankTeller
// and no two variants are mutually substitutable.
func variant(i int) *types.Interface {
	return types.Extend(fmt.Sprintf("Teller_%d", i), teller(),
		types.Op(fmt.Sprintf("Audit_%d", i),
			types.Params(types.P("a", values.TString())),
			types.Term("OK"),
			types.Term("Error", types.P("reason", values.TString())),
		),
	)
}

func TestReplicatedServesReads(t *testing.T) {
	auth := New()
	rep := NewReplicated(auth, 3)
	for _, it := range []*types.Interface{teller(), manager(), loans()} {
		if err := rep.RegisterInterface(it); err != nil {
			t.Fatalf("RegisterInterface(%s): %v", it.Name, err)
		}
	}
	ok, err := rep.IsSubtype("BankManager", "BankTeller")
	if err != nil || !ok {
		t.Fatalf("IsSubtype(BankManager, BankTeller) = %v, %v; want true", ok, err)
	}
	if _, err := rep.LookupInterface("LoansOfficer"); err != nil {
		t.Fatalf("LookupInterface: %v", err)
	}
	if got, err := rep.Interfaces(); err != nil || len(got) != 3 {
		t.Fatalf("Interfaces() = %v, %v; want 3 names", got, err)
	}
	st := rep.Stats()
	if st.Reads == 0 || st.Resyncs == 0 {
		t.Fatalf("stats show no replica traffic: %+v", st)
	}
}

func TestReplicatedReadYourWrites(t *testing.T) {
	auth := New()
	rep := NewReplicated(auth, 2)
	if err := rep.RegisterInterface(teller()); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Interleave writes and reads: after each write returns, every replica
	// must serve the new fact (the gen fence forces a resync).
	for i := 0; i < 8; i++ {
		it := variant(i)
		if err := rep.RegisterInterface(it); err != nil {
			t.Fatalf("register %s: %v", it.Name, err)
		}
		// One read per replica: both must see the registration.
		for r := 0; r < 2; r++ {
			ok, err := rep.IsSubtype(it.Name, "BankTeller")
			if err != nil || !ok {
				t.Fatalf("after registering %s: IsSubtype = %v, %v; want true", it.Name, ok, err)
			}
		}
		for r := 0; r < 2; r++ {
			if err := rep.DeclareSubtype(it.Name, "BankTeller"); err != nil {
				t.Fatalf("after registering %s: DeclareSubtype = %v", it.Name, err)
			}
		}
	}
}

// TestReplicatedGenFenceRace is the replication mirror of the trader's
// closure-invalidation test: concurrent registrations race replicated
// IsSubtype and DeclareSubtype checks, and no read
// may serve a stale memo across a gen bump — once a write has returned,
// every subsequent read observes it. Run under -race this also proves
// the replica swap itself is data-race free.
func TestReplicatedGenFenceRace(t *testing.T) {
	auth := New()
	rep := NewReplicated(auth, 4)
	if err := rep.RegisterInterface(teller()); err != nil {
		t.Fatalf("register: %v", err)
	}

	const writes = 120
	var hi atomic.Int64 // index of the newest fully-written variant
	hi.Store(-1)
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writes; i++ {
			it := variant(i)
			if err := rep.RegisterInterface(it); err != nil {
				t.Errorf("register %s: %v", it.Name, err)
				return
			}
			// Publish i only after the write returned: readers that
			// observe hi >= i must be served the new type.
			hi.Store(int64(i))
		}
	}()

	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				k := hi.Load()
				if k < 0 {
					continue
				}
				name := fmt.Sprintf("Teller_%d", k)
				ok, err := rep.IsSubtype(name, "BankTeller")
				if err != nil || !ok {
					t.Errorf("stale read: IsSubtype(%s, BankTeller) = %v, %v after write %d returned", name, ok, err, k)
					return
				}
				if err := rep.DeclareSubtype(name, "BankTeller"); err != nil {
					t.Errorf("stale read: DeclareSubtype(%s, BankTeller) = %v after write %d returned", name, err, k)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Steady state: every variant visible, replicas fully caught up.
	for i := 0; i < writes; i++ {
		name := fmt.Sprintf("Teller_%d", i)
		ok, err := rep.IsSubtype(name, "BankTeller")
		if err != nil || !ok {
			t.Fatalf("final read: IsSubtype(%s, BankTeller) = %v, %v", name, ok, err)
		}
	}
	if g, a := rep.Gen(), auth.Gen(); g != a {
		t.Fatalf("front-end gen %d != authority gen %d", g, a)
	}
}

// TestReplicatedDelegatesColdPaths: a registration and a declaration go to
// the authority. The registration lands in the authority's store; the
// declaration is answered by the authority's check, sound or not, and
// leaves every replica current.
func TestReplicatedDelegatesColdPaths(t *testing.T) {
	auth := New()
	rep := NewReplicated(auth, 2)
	for _, it := range []*types.Interface{teller(), manager()} {
		if err := rep.RegisterInterface(it); err != nil {
			t.Fatalf("RegisterInterface(%s): %v", it.Name, err)
		}
		if _, err := auth.LookupInterface(it.Name); err != nil {
			t.Fatalf("authority LookupInterface(%s) after a replicated registration: %v", it.Name, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := rep.LookupInterface("BankTeller"); err != nil {
			t.Fatalf("LookupInterface: %v", err)
		}
	}
	before := rep.Stats().Resyncs
	if err := rep.DeclareSubtype("BankManager", "BankTeller"); err != nil {
		t.Fatalf("sound DeclareSubtype: %v", err)
	}
	if err := rep.DeclareSubtype("BankTeller", "BankManager"); !errors.Is(err, ErrBadDecl) {
		t.Fatalf("unsound DeclareSubtype = %v, want ErrBadDecl", err)
	}
	if err := rep.DeclareSubtype("Ghost", "BankTeller"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("DeclareSubtype(Ghost, BankTeller) = %v, want ErrNotFound", err)
	}
	for i := 0; i < 2; i++ {
		if ok, err := rep.IsSubtype("BankManager", "BankTeller"); err != nil || !ok {
			t.Fatalf("IsSubtype after the declarations = %v, %v", ok, err)
		}
	}
	if got := rep.Stats().Resyncs; got != before {
		t.Errorf("declarations caused %d resyncs, want none", got-before)
	}
}

// countingCarrier carries a Remote's calls straight to a servant over a
// local store. It counts every operation it carries, and fails the next
// call of each operation named in fail with errCarrier.
type countingCarrier struct {
	s     Servant
	mu    sync.Mutex
	calls map[string]int
	fail  map[string]bool
}

var errCarrier = errors.New("carrier: call lost")

func newCountingCarrier() *countingCarrier {
	return &countingCarrier{s: Servant{R: New()}, calls: map[string]int{}, fail: map[string]bool{}}
}

func (c *countingCarrier) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	c.mu.Lock()
	c.calls[op]++
	lost := c.fail[op]
	delete(c.fail, op)
	c.mu.Unlock()
	if lost {
		return "", nil, errCarrier
	}
	return c.s.Invoke(ctx, op, args)
}

func (c *countingCarrier) Close() error { return nil }

// reads returns how many calls other than the generation fence the
// carrier has carried, and resets the counts.
func (c *countingCarrier) reads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for op, k := range c.calls {
		if op != "Gen" {
			n += k
		}
	}
	c.calls = map[string]int{}
	return n
}

// TestReplicatedResyncReadsEachTypeOnce: a replica rebuilds its copy from
// one listing and one lookup per registered interface, 1 + N authority
// reads for N types, and nothing else.
func TestReplicatedResyncReadsEachTypeOnce(t *testing.T) {
	c := newCountingCarrier()
	auth := NewRemote(c)
	const n = 6
	if err := auth.RegisterInterface(teller()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if err := auth.RegisterInterface(variant(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := NewReplicated(auth, 1)
	c.reads()
	if ok, err := rep.IsSubtype("Teller_0", "BankTeller"); err != nil || !ok {
		t.Fatalf("IsSubtype = %v, %v", ok, err)
	}
	if got := c.reads(); got != 1+n {
		t.Errorf("one resync over %d types made %d authority reads, want %d", n, got, 1+n)
	}
	if st := rep.Stats(); st.Resyncs != 1 {
		t.Errorf("resyncs = %d, want 1", st.Resyncs)
	}
}

// TestReplicatedFailedResyncIsNotCurrent: a resync that loses one
// authority read — the listing or one type's lookup — answers the reader
// with that failure and leaves the replica stale, so the next read
// resyncs and is served. A replica marked current after a lost read would
// answer ErrNotFound for every registered type until the next
// registration.
func TestReplicatedFailedResyncIsNotCurrent(t *testing.T) {
	for _, op := range []string{"Interfaces", "LookupInterface"} {
		t.Run(op, func(t *testing.T) {
			c := newCountingCarrier()
			auth := NewRemote(c)
			for _, it := range []*types.Interface{teller(), manager()} {
				if err := auth.RegisterInterface(it); err != nil {
					t.Fatal(err)
				}
			}
			rep := NewReplicated(auth, 1)
			c.mu.Lock()
			c.fail[op] = true
			c.mu.Unlock()
			if _, err := rep.LookupInterface("BankTeller"); !errors.Is(err, errCarrier) {
				t.Fatalf("read over a lost %s = %v, want the carrier's failure", op, err)
			}
			for i := 0; i < 3; i++ {
				if it, err := rep.LookupInterface("BankTeller"); err != nil || it.Name != "BankTeller" {
					t.Fatalf("read %d after the lost %s = %v, %v", i, op, it, err)
				}
			}
			if ok, err := rep.IsSubtype("BankManager", "BankTeller"); err != nil || !ok {
				t.Fatalf("IsSubtype after the lost %s = %v, %v", op, ok, err)
			}
		})
	}
}
