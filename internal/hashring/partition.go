package hashring

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Partition is a key space split over named members of type S by
// consistent hashing, with the one live ring-change protocol the sharded
// trader (keys: service types) and relocator (keys: interface ids) share.
// Its routing state is one immutable view that a change swaps whole: a
// reader loads it with no lock, no copy and no allocation, and routes every
// key of one operation through the same view.
//
// A change (Add, Remove) holds the change lock end to end. It flips — the
// new ring is published with the previous one kept beside it, so until the
// change settles a key whose owner moved has two, its previous owner (Prev)
// and its new one (Owner), and a leaving member stays routable — then
// drains: each donor (every member before an Add, the leaving member of a
// Remove) is handed to the caller's drain with dest, which names the new
// owner of each key the donor gives up, and the drain copies each such key
// there before removing it from the donor. Then the window closes and a
// leaving member is dropped. Three rules keep a change invisible:
//
//   - Window: a reader of a moving key reads its new owner after its
//     previous one, and goes again if the epoch moved under it (a view
//     loaded before a flip may route at a donor that has drained since). A
//     copy lands before its original goes, so a miss on the previous owner
//     means the copy was on the new one before the later read.
//   - Writes: a write checks after it lands that its owner has not moved
//     (Owns). If it has, the write may sit on a donor the drain has read
//     already: the writer waits the change out (Settle), pulls the write
//     back from where it landed and writes again.
//   - Removal: a removal goes to the previous owner first, then the
//     current one, and again if the epoch moved under it. A drained copy
//     stays only if the donor still held the original when the drain
//     removed it: otherwise a client removed the key after the drain read
//     the donor, and the copy goes too, or the removed key would come back
//     on the new owner. A removal does not wait for the drain, so it is
//     final once the change it overlapped has settled.
//
// The zero Partition is empty and ready to use.
type Partition[S any] struct {
	mu  sync.Mutex // the change lock
	cur atomic.Pointer[view[S]]
}

// drainFunc moves what one donor gives up: dest returns a key's new owner,
// or false when the donor keeps it. It runs under the change lock, so it
// must not change the same partition or wait one out.
type drainFunc[S any] func(donor string, from S, dest func(key string) (S, bool)) error

// view is one routing state, never modified once published.
type view[S any] struct {
	ring, prev *Ring    // prev: the ring before the change draining now, nil once settled
	names      []string // sorted
	members    []S      // index-aligned with names
}

// View returns the current routing state.
func (p *Partition[S]) View() *view[S] {
	if v := p.cur.Load(); v != nil {
		return v
	}
	return &view[S]{ring: &Ring{}}
}

// Owns reports whether member still owns key under the current ring: the
// check a write makes after it lands.
func (p *Partition[S]) Owns(key, member string) bool { return p.View().ring.Owner(key) == member }

// Settle returns once no change is in progress.
func (p *Partition[S]) Settle() {
	p.mu.Lock()
	p.mu.Unlock()
}

// Add joins s as member name and drains to it every key it now owns.
func (p *Partition[S]) Add(name string, s S, drain drainFunc[S]) error {
	return p.change(name, s, true, drain)
}

// Remove drains member name's keys to their new owners, then drops it. The
// last member cannot leave.
func (p *Partition[S]) Remove(name string, drain drainFunc[S]) error {
	var none S
	return p.change(name, none, false, drain)
}

// change flips, drains and settles. It returns the first error a drain
// reported; the change itself still completes.
func (p *Partition[S]) change(name string, s S, join bool, drain drainFunc[S]) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.View()
	ring := old.ring.Clone()
	var err error
	switch {
	case join:
		err = ring.Add(name)
	case ring.Size() == 1 && ring.members[name]:
		err = fmt.Errorf("hashring: cannot remove last member %q", name)
	default:
		err = ring.Remove(name)
	}
	if err != nil {
		return err
	}
	i, _ := slices.BinarySearch(old.names, name)
	flip := &view[S]{ring: ring, prev: old.ring, names: old.names, members: old.members}
	donors, from := old.names, old.members
	if join {
		flip.names = slices.Insert(slices.Clone(old.names), i, name)
		flip.members = slices.Insert(slices.Clone(old.members), i, s)
	} else {
		donors, from = donors[i:i+1], from[i:i+1]
	}
	p.cur.Store(flip)

	var first error
	for d, donor := range donors {
		dest := func(key string) (to S, ok bool) {
			if owner := ring.Owner(key); owner != donor && old.ring.Owner(key) == donor {
				return flip.Member(owner)
			}
			return to, false
		}
		if err := drain(donor, from[d], dest); err != nil && first == nil {
			first = err
		}
	}
	settled := &view[S]{ring: ring, names: flip.names, members: flip.members}
	if !join {
		settled.names = slices.Delete(slices.Clone(old.names), i, i+1)
		settled.members = slices.Delete(slices.Clone(old.members), i, i+1)
	}
	p.cur.Store(settled)
	return first
}

// Epoch is the view's ring generation: it advances at every flip, so a
// reader that sees it move knows its routing may be out of date.
func (v *view[S]) Epoch() uint64 { return v.ring.Epoch() }

// Settled counts the changes that have completed: every flip, less the one
// still draining.
func (v *view[S]) Settled() uint64 {
	if v.prev != nil {
		return v.ring.Epoch() - 1
	}
	return v.ring.Epoch()
}

// Owner returns the member owning key under the view's ring.
func (v *view[S]) Owner(key string) (name string, s S, ok bool) {
	name = v.ring.Owner(key)
	s, ok = v.Member(name)
	return name, s, ok
}

// Prev returns key's previous owner while a change drains, when that is not
// also its current owner: the member still holding a key on the move.
func (v *view[S]) Prev(key string) (s S, ok bool) {
	if v.prev != nil {
		if name := v.prev.Owner(key); name != v.ring.Owner(key) {
			return v.Member(name)
		}
	}
	return s, false
}

// Member returns the member called name.
func (v *view[S]) Member(name string) (s S, ok bool) {
	if i, found := slices.BinarySearch(v.names, name); found {
		return v.members[i], true
	}
	return s, false
}

// Names returns the sorted names of the members the view routes to — a
// leaving member among them until its change settles. The slice is shared:
// callers must not modify it.
func (v *view[S]) Names() []string { return v.names }

// Members returns the members, index-aligned with Names. The slice is
// shared: callers must not modify it.
func (v *view[S]) Members() []S { return v.members }
