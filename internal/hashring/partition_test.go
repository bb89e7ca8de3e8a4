package hashring

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// toy is a keyed store for the protocol tests: a set of keys behind a lock.
type toy struct {
	mu   sync.Mutex
	keys map[string]bool
}

func newToy() *toy { return &toy{keys: make(map[string]bool)} }

func (s *toy) has(k string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[k]
}

func (s *toy) put(k string) {
	s.mu.Lock()
	s.keys[k] = true
	s.mu.Unlock()
}

// del removes k and reports whether the store held it.
func (s *toy) del(k string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := s.keys[k]
	delete(s.keys, k)
	return held
}

func (s *toy) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	return out
}

// toyDrain is a front-end's half of a change: copy each key the donor gives
// up to its new owner, then remove it from the donor — keeping the copy
// only if the donor still held the original.
func toyDrain(_ string, from *toy, dest func(string) (*toy, bool)) error {
	for _, k := range from.snapshot() {
		to, ok := dest(k)
		if !ok {
			continue
		}
		to.put(k)
		if !from.del(k) {
			to.del(k)
		}
	}
	return nil
}

// lookup reads k as a front-end does: the previous owner, then the current
// one, again while the epoch moves.
func lookup(p *Partition[*toy], k string) bool {
	for {
		v := p.View()
		if old, ok := v.Prev(k); ok && old.has(k) {
			return true
		}
		if _, cur, ok := v.Owner(k); ok && cur.has(k) {
			return true
		}
		if p.View().Epoch() == v.Epoch() {
			return false
		}
	}
}

// remove deletes k as a front-end does: at the previous owner, then the
// current one, again while the epoch moves.
func remove(p *Partition[*toy], k string) {
	for {
		v := p.View()
		if old, ok := v.Prev(k); ok {
			old.del(k)
		}
		if _, cur, ok := v.Owner(k); ok {
			cur.del(k)
		}
		if p.View().Epoch() == v.Epoch() {
			return
		}
	}
}

// put writes k as a front-end does: at its owner; if the owner moved, wait
// the change out, pull the write back and go again.
func put(p *Partition[*toy], k string) {
	for {
		name, cur, _ := p.View().Owner(k)
		cur.put(k)
		if p.Owns(k, name) {
			return
		}
		p.Settle()
		cur.del(k)
	}
}

// TestPartitionChangesHideNothing drives the protocol with members joining
// and leaving from two goroutines at once while probers read and clients
// write and remove keys: no live key is ever missed, no removed key is seen
// once the change its removal overlapped has settled, and once a change
// settles every live key is on exactly one member — its owner — and no
// removed key is on any.
func TestPartitionChangesHideNothing(t *testing.T) {
	const initial, keys = 200, 300
	var p Partition[*toy]
	var mu sync.Mutex
	stores := map[string]*toy{}
	member := func(name string) *toy {
		mu.Lock()
		defer mu.Unlock()
		if stores[name] == nil {
			stores[name] = newToy()
		}
		return stores[name]
	}
	for _, m := range []string{"m0", "m1"} {
		if err := p.Add(m, member(m), toyDrain); err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) string { return fmt.Sprintf("key-%d", i) }
	for i := 0; i < initial; i++ {
		put(&p, key(i))
	}

	// Of the initial keys the even ones stay and the odd ones are removed
	// while members come and go; the rest are written meanwhile. A removal
	// stamps the epoch after it: any change it overlapped has flipped by
	// then, and once that many changes have settled the key is gone for
	// good. The stamp is the epoch plus one, so zero means not removed.
	var removed [keys]atomic.Uint64
	var written [keys]atomic.Bool
	goneBy := func(i int, settled uint64) bool {
		at := removed[i].Load()
		return at != 0 && settled >= at-1
	}
	live := func(i int) bool { return i < initial && i%2 == 0 || written[i].Load() }
	settled := func() {
		p.mu.Lock() // no change in flight
		defer p.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		v := p.View()
		for i := 0; i < keys; i++ {
			// Before the scan: a write or removal may finish during it.
			live, gone := live(i), goneBy(i, v.Settled())
			owner, _, _ := v.Owner(key(i))
			var on []string
			for name, s := range stores {
				if s.has(key(i)) {
					on = append(on, name)
				}
			}
			switch {
			case live && (len(on) != 1 || on[0] != owner):
				t.Errorf("settled at epoch %d: live %s on %v, owner %s", v.Epoch(), key(i), on, owner)
			case gone && len(on) != 0:
				t.Errorf("settled at epoch %d: removed %s on %v", v.Epoch(), key(i), on)
			case i < initial && (len(on) > 1 || len(on) == 1 && on[0] != owner):
				t.Errorf("settled at epoch %d: %s on %v, owner %s", v.Epoch(), key(i), on, owner)
			}
		}
	}

	var stop atomic.Bool
	var probes atomic.Int64
	var readers, clients sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				for i := 0; i < keys; i++ {
					live, gone := live(i), goneBy(i, p.View().Settled())
					found := lookup(&p, key(i))
					if live && !found {
						t.Errorf("live %s missed", key(i))
					}
					if gone && found {
						t.Errorf("removed %s seen", key(i))
					}
				}
				probes.Add(1)
			}
		}()
	}
	clients.Add(4)
	go func() {
		defer clients.Done()
		for i := initial; i < keys; i++ {
			put(&p, key(i))
			written[i].Store(true)
			runtime.Gosched()
		}
	}()
	go func() {
		defer clients.Done()
		for i := 1; i < initial; i += 2 {
			remove(&p, key(i))
			removed[i].Store(p.View().Epoch() + 1)
			runtime.Gosched()
		}
	}()
	go func() {
		defer clients.Done()
		for i := 2; i < 8; i++ {
			name := fmt.Sprintf("m%d", i)
			if err := p.Add(name, member(name), toyDrain); err != nil {
				t.Error(err)
			}
			settled()
		}
	}()
	go func() {
		defer clients.Done()
		for _, name := range []string{"m0", "m1", "m2", "m3"} {
			for p.Remove(name, toyDrain) != nil { // m2, m3 may not have joined yet
				runtime.Gosched()
			}
			settled()
		}
	}()
	clients.Wait()
	for start := probes.Load(); probes.Load() < start+2; {
		runtime.Gosched()
	}
	stop.Store(true)
	readers.Wait()
	settled()
	if got := p.View().Names(); fmt.Sprint(got) != "[m4 m5 m6 m7]" {
		t.Fatalf("members = %v", got)
	}
}

// TestPartitionViewIsImmutable: a reader holding a view is unaffected by
// the changes that replace it, and changes refuse a duplicate, an absent
// and a last member.
func TestPartitionViewIsImmutable(t *testing.T) {
	var p Partition[string]
	if _, _, ok := p.View().Owner("k"); ok || p.View().Epoch() != 0 {
		t.Fatal("the zero partition routes somewhere")
	}
	nop := func(string, string, func(string) (string, bool)) error { return nil }
	for _, m := range []string{"a", "b"} {
		if err := p.Add(m, "store-"+m, nop); err != nil {
			t.Fatal(err)
		}
	}
	v := p.View()
	owners := make([]string, 100)
	for i := range owners {
		_, owners[i], _ = v.Owner(fmt.Sprintf("key-%d", i))
	}

	if err := p.Add("c", "store-c", nop); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("a", nop); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("b", "again", nop); err == nil {
		t.Error("a duplicate member joined")
	}
	if err := p.Remove("ghost", nop); err == nil {
		t.Error("an absent member left")
	}
	if err := p.Remove("b", nop); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("c", nop); err == nil {
		t.Error("the last member left")
	}

	if v.Epoch() != 2 || v.Settled() != 2 || fmt.Sprint(v.Names(), v.Members()) != "[a b] [store-a store-b]" {
		t.Fatalf("held view changed: epoch %d, settled %d, %v %v", v.Epoch(), v.Settled(), v.Names(), v.Members())
	}
	for i, want := range owners {
		k := fmt.Sprintf("key-%d", i)
		if _, got, _ := v.Owner(k); got != want {
			t.Fatalf("held view routes %s to %s, was %s", k, got, want)
		}
		if _, ok := v.Prev(k); ok {
			t.Fatalf("held settled view has a previous owner for %s", k)
		}
	}
	if now := p.View(); now.Epoch() != 5 || fmt.Sprint(now.Names()) != "[c]" {
		t.Fatalf("current view: epoch %d, members %v", now.Epoch(), now.Names())
	}
}

// TestPartitionSettleWaitsForChange: Settle blocks while a change drains
// and returns once it has settled; with no change in progress it returns
// at once.
func TestPartitionSettleWaitsForChange(t *testing.T) {
	var p Partition[string]
	p.Settle()
	nop := func(string, string, func(string) (string, bool)) error { return nil }
	if err := p.Add("a", "store-a", nop); err != nil {
		t.Fatal(err)
	}
	draining, release := make(chan struct{}), make(chan struct{})
	go p.Add("b", "store-b", func(string, string, func(string) (string, bool)) error {
		close(draining)
		<-release
		return nil
	})
	<-draining
	if v := p.View(); v.Epoch() != 2 || v.Settled() != 1 {
		t.Fatalf("mid-change view: epoch %d, settled %d; want 2, 1", v.Epoch(), v.Settled())
	}
	settled := make(chan struct{})
	go func() {
		p.Settle()
		close(settled)
	}()
	select {
	case <-settled:
		t.Fatal("Settle returned while a change was draining")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-settled
	if v := p.View(); v.Epoch() != 2 || v.Settled() != 2 || fmt.Sprint(v.Names()) != "[a b]" {
		t.Fatalf("settled view: epoch %d, settled %d, %v", v.Epoch(), v.Settled(), v.Names())
	}
}
