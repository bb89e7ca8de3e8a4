package hashring

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

// refHash is the reference the inline hash must match: hash/fnv's FNV-1a
// and the finalizer. Placement is this function of "<member>#<i>" and the
// key.
func refHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// TestRingHashMatchesFNV: the inline hash is the reference's, key by key,
// and a member's virtual points are the reference's hashes of m#0…m#63.
func TestRingHashMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "shard0", "trader-0", "BankTeller", "node1/c0/k0/o0/i0#c67fa7dcbac34b51", "ünïcode"}
	for i := 0; i < replicas; i++ {
		keys = append(keys, fmt.Sprintf("m#%d", i))
	}
	for _, k := range keys {
		if got, want := ringHash(k), refHash(k); got != want {
			t.Errorf("ringHash(%q) = %#x, reference %#x", k, got, want)
		}
	}
	r := New()
	if err := r.Add("m"); err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for i := 0; i < replicas; i++ {
		want = append(want, refHash(fmt.Sprintf("m#%d", i)))
	}
	slices.Sort(want)
	got := make([]uint64, len(r.points))
	for i, p := range r.points {
		got[i] = p.hash
	}
	if !slices.Equal(got, want) {
		t.Errorf("m's virtual points moved:\n got %x\nwant %x", got, want)
	}
}

// TestAddAllocBudget: a member joins for the growth of the point slice
// (and of the member set), not an allocation per virtual point.
func TestAddAllocBudget(t *testing.T) {
	const runs = 100
	rings := make([]*Ring, runs+1) // AllocsPerRun calls once more to warm up
	for i := range rings {
		rings[i] = New()
		if err := rings[i].Add("a"); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := rings[next].Add("b"); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 2 {
		t.Errorf("Add = %v allocs, budget 2", allocs)
	}
}

func TestOwnerStableAndTotal(t *testing.T) {
	r := New()
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("empty ring Owner = %q", got)
	}
	for _, m := range []string{"a", "b", "c"} {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if r.Size() != 3 {
		t.Fatalf("Size = %d", r.Size())
	}
	// Every key maps to exactly one member, deterministically.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		o1, o2 := r.Owner(key), r.Owner(key)
		if o1 != o2 || !r.members[o1] {
			t.Fatalf("Owner(%q) unstable or unknown: %q vs %q", key, o1, o2)
		}
	}
}

func TestAddMovesOnlyAFraction(t *testing.T) {
	r := New()
	for _, m := range []string{"s0", "s1", "s2", "s3"} {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 2000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Owner(k)
	}
	next := r.Clone()
	if err := next.Add("s4"); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for k, old := range before {
		now := next.Owner(k)
		if now != old {
			if now != "s4" {
				t.Fatalf("key %q moved %s -> %s, not to the new member", k, old, now)
			}
			moved++
		}
	}
	// Consistent hashing: ~1/5 of the space moves, and only to the newcomer.
	if moved == 0 || moved > keys/2 {
		t.Fatalf("moved %d of %d keys on add", moved, keys)
	}
	// Clone left the original untouched.
	for k, old := range before {
		if r.Owner(k) != old {
			t.Fatalf("original ring disturbed for %q", k)
		}
	}
}

func TestRemoveRedistributesToSurvivors(t *testing.T) {
	r := New()
	for _, m := range []string{"s0", "s1", "s2"} {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[string]string)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Owner(k)
	}
	if err := r.Remove("s1"); err != nil {
		t.Fatal(err)
	}
	for k, old := range before {
		now := r.Owner(k)
		if now == "s1" {
			t.Fatalf("removed member still owns %q", k)
		}
		if old != "s1" && now != old {
			t.Fatalf("key %q not owned by s1 moved %s -> %s on remove", k, old, now)
		}
	}
}

func TestEpochAndErrors(t *testing.T) {
	r := New()
	e0 := r.Epoch()
	if err := r.Add("a"); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != e0+1 {
		t.Fatalf("epoch after add = %d", r.Epoch())
	}
	if err := r.Add("a"); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := r.Remove("ghost"); err == nil {
		t.Fatal("removing absent member accepted")
	}
	c := r.Clone()
	if err := c.Add("b"); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != r.Epoch()+1 {
		t.Fatalf("clone epoch = %d, base = %d", c.Epoch(), r.Epoch())
	}
	if r.Size() != 1 || !r.members["a"] {
		t.Fatalf("base members disturbed: %v", r.members)
	}
}
