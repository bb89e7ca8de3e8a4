package relocator

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/naming"
)

func TestCacheHitMiss(t *testing.T) {
	r := New()
	in := ref(1, "sim://a", 0)
	if err := r.Register(in); err != nil {
		t.Fatal(err)
	}
	c := NewCache(r, 8)
	for i := 0; i < 3; i++ {
		got, err := c.Lookup(in.ID)
		if err != nil || got != in {
			t.Fatalf("lookup %d = %+v, %v", i, got, err)
		}
	}
	stats := c.Stats()
	if stats.Misses != 1 || stats.Hits != 2 || stats.Entries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Source errors pass through and cache nothing.
	if _, err := c.Lookup(ref(99, "", 0).ID); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown lookup = %v", err)
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("error cached: %+v", c.Stats())
	}
}

func TestCacheCapacityBound(t *testing.T) {
	r := New()
	const capLimit = 16
	c := NewCache(r, capLimit)
	for i := 0; i < 100; i++ {
		in := ref(uint64(i+1), "sim://a", 0)
		if err := r.Register(in); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Lookup(in.ID); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.Stats()
	if stats.Entries > capLimit {
		t.Fatalf("entries = %d > cap %d", stats.Entries, capLimit)
	}
	if stats.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
}

func TestCacheInvalidateForcesRefresh(t *testing.T) {
	r := New()
	in := ref(1, "sim://a", 0)
	if err := r.Register(in); err != nil {
		t.Fatal(err)
	}
	c := NewCache(r, 8)
	if _, err := c.Lookup(in.ID); err != nil {
		t.Fatal(err)
	}
	// The authority moves the interface; the cache still holds the old
	// endpoint until a staleness signal lands.
	moved, err := r.Move(in.ID, "sim://b")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Lookup(in.ID); got.Endpoint != "sim://a" {
		t.Fatalf("expected stale cached answer, got %+v", got)
	}
	c.Invalidate(in.ID)
	got, err := c.Lookup(in.ID)
	if err != nil || got != moved {
		t.Fatalf("post-invalidate lookup = %+v, %v", got, err)
	}
	if c.Stats().Invalidated != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

// laggingSource answers whatever ref it holds, so a test can make the
// authority lag behind what the cache has already seen.
type laggingSource struct {
	mu  sync.Mutex
	ref naming.InterfaceRef
}

func (s *laggingSource) set(r naming.InterfaceRef) {
	s.mu.Lock()
	s.ref = r
	s.mu.Unlock()
}

func (s *laggingSource) Lookup(naming.InterfaceID) (naming.InterfaceRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ref, nil
}

// An answer older than the epoch the cache holds is returned — the
// authority may genuinely lag, mid-drain — but never cached; once the
// authority catches up, caching resumes.
func TestCacheLaggingAnswerIsNotCached(t *testing.T) {
	src := &laggingSource{ref: ref(1, "sim://c", 3)}
	c := NewCache(src, 8)
	if got, _ := c.Lookup(src.ref.ID); got.Epoch != 3 {
		t.Fatalf("first lookup = %+v", got)
	}
	c.Invalidate(src.ref.ID)
	src.set(ref(1, "sim://a", 1))
	for i := 0; i < 2; i++ {
		if got, _ := c.Lookup(src.ref.ID); got.Epoch != 1 {
			t.Fatalf("lagging lookup %d = %+v, want the source's epoch 1", i, got)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("a lagging answer was cached: %+v", st)
	}
	src.set(ref(1, "sim://d", 4))
	for i := 0; i < 2; i++ {
		if got, _ := c.Lookup(src.ref.ID); got.Epoch != 4 {
			t.Fatalf("caught-up lookup %d = %+v", i, got)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("the caught-up answer was not cached: %+v", st)
	}
}

// blockingSource answers from a relocator, but holds one lookup inside
// the source until the test lets it go.
type blockingSource struct {
	r       *Relocator
	entered chan struct{}
	release chan struct{}
}

func (s *blockingSource) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	ref, err := s.r.Lookup(id)
	if s.entered != nil {
		close(s.entered)
		s.entered = nil
		<-s.release
	}
	return ref, err
}

// An answer to a lookup that began before an Invalidate is returned but
// not cached: the move that prompted the Invalidate may postdate it.
func TestCacheAnswerBegunBeforeInvalidateIsNotCached(t *testing.T) {
	r := New()
	in := ref(1, "sim://a", 0)
	if err := r.Register(in); err != nil {
		t.Fatal(err)
	}
	src := &blockingSource{r: r, entered: make(chan struct{}), release: make(chan struct{})}
	c := NewCache(src, 8)
	entered := src.entered
	done := make(chan naming.InterfaceRef)
	go func() {
		got, _ := c.Lookup(in.ID)
		done <- got
	}()
	<-entered // the slow lookup has read epoch 0
	moved, err := r.Move(in.ID, "sim://b")
	if err != nil {
		t.Fatal(err)
	}
	c.Invalidate(in.ID)
	close(src.release)
	if got := <-done; got != in {
		t.Fatalf("slow lookup = %+v, want the epoch it read", got)
	}
	if got, err := c.Lookup(in.ID); err != nil || got != moved {
		t.Fatalf("lookup after Invalidate = %+v, %v; want %+v", got, err, moved)
	}
}

// TestCacheLookupAfterInvalidateIsFresh is the pull rule's -race
// property: while moves race lookups, a Lookup that starts after
// Invalidate(id) returns never answers an epoch older than the one the
// authority held at that Invalidate.
func TestCacheLookupAfterInvalidateIsFresh(t *testing.T) {
	r := New()
	in := ref(1, "sim://a", 0)
	if err := r.Register(in); err != nil {
		t.Fatal(err)
	}
	c := NewCache(r, 8)

	const moves = 2000
	var stop atomic.Bool
	var violations, lookups atomic.Uint64
	floor := new(atomic.Uint64) // the authority's epoch at the last Invalidate
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				known := floor.Load()
				got, err := c.Lookup(in.ID)
				if err != nil {
					t.Error(err)
					return
				}
				lookups.Add(1)
				if got.Epoch < known {
					violations.Add(1)
				}
			}
		}()
	}
	for i := 0; i < moves; i++ {
		// Let the readers cache each epoch before it goes stale.
		for n := lookups.Load(); lookups.Load() < n+4 && !t.Failed(); {
			runtime.Gosched()
		}
		moved, err := r.Move(in.ID, naming.Endpoint(fmt.Sprintf("sim://n%d", i%2)))
		if err != nil {
			t.Error(err)
			break
		}
		c.Invalidate(in.ID)
		floor.Store(moved.Epoch)
	}
	stop.Store(true)
	wg.Wait()

	if n := violations.Load(); n != 0 {
		t.Fatalf("%d lookups begun after an Invalidate answered an older epoch", n)
	}
	if got, err := c.Lookup(in.ID); err != nil || got.Epoch != moves {
		t.Fatalf("settled lookup = %+v, %v", got, err)
	}
}
