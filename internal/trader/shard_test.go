package trader

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hashring"
	"repro/internal/mgmt"
	"repro/internal/values"
)

// newShardedBank builds a front-end over n local trader shards named
// "s0".."s{n-1}" against the bank type repository.
func newShardedBank(t *testing.T, n int) *ShardedTrader {
	t.Helper()
	repo := repoWithBank(t)
	st := NewSharded("front", repo, 0)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := st.AddShard(name, New(name, repo)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestShardedEmptyRing(t *testing.T) {
	st := NewSharded("front", repoWithBank(t), 0)
	if _, err := st.Export("BankTeller", refOf("BankTeller", 1), values.Null()); !errors.Is(err, ErrNoShards) {
		t.Fatalf("export on empty ring = %v", err)
	}
	if err := st.Withdraw("s0/1"); !errors.Is(err, ErrNoShards) {
		t.Fatalf("withdraw on empty ring = %v", err)
	}
}

func TestShardedExportImportRoutes(t *testing.T) {
	st := newShardedBank(t, 4)
	ids := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		id, err := st.Export("BankTeller", refOf("BankTeller", uint64(i+1)), values.Null())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	offers, err := st.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 20 {
		t.Fatalf("imported %d offers", len(offers))
	}
	// One advertised type, exact request: the import consults exactly one
	// shard regardless of ring size.
	stats := st.ShardStats()
	if stats.Imports != 1 || stats.ShardsQueried != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// The owning leg counts every export and the one routed query, and its
	// store the 20 offers that query examined.
	owner := st.LegStats()[strings.SplitN(ids[0], "/", 2)[0]]
	if owner != (LegStats{Offers: 20, RoutedExports: 20, RoutedImports: 1, Considered: 20}) {
		t.Fatalf("owner leg = %+v (all legs %+v)", owner, st.LegStats())
	}
	for _, id := range ids {
		if err := st.Withdraw(id); err != nil {
			t.Fatalf("withdraw %s: %v", id, err)
		}
	}
	if offers, _ := st.Import(ImportRequest{ServiceType: "BankTeller"}); len(offers) != 0 {
		t.Fatalf("offers survive withdraw: %v", offers)
	}
}

func TestShardedSubtypeClosureFansOut(t *testing.T) {
	st := newShardedBank(t, 4)
	if _, err := st.Export("BankTeller", refOf("BankTeller", 1), values.Null()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Export("BankManager", refOf("BankManager", 2), values.Null()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Export("Printer", refOf("Printer", 3), values.Null()); err != nil {
		t.Fatal(err)
	}
	// A BankTeller import must see the BankManager offer (substitutable)
	// even though the two types live on different shards, and never the
	// Printer.
	offers, err := st.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 {
		t.Fatalf("closure import = %v", offers)
	}
	for _, o := range offers {
		if o.ServiceType == "Printer" {
			t.Fatalf("printer matched a teller import")
		}
	}
	// MaxMatches truncates after the merge.
	offers, err = st.Import(ImportRequest{ServiceType: "BankTeller", MaxMatches: 1})
	if err != nil || len(offers) != 1 {
		t.Fatalf("MaxMatches import = %v, %v", offers, err)
	}
	// A disjoint type sees only its own bucket.
	res, err := st.ImportEx(ImportRequest{ServiceType: "Printer", Constraint: ""})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinksQueried != 1 || len(res.Offers) != 1 {
		t.Fatalf("printer import = %+v", res)
	}
	// A known type nothing advertised substitutes for: empty result, not
	// an error, and no shard consulted.
	st2 := newShardedBank(t, 2)
	res2, err := st2.ImportEx(ImportRequest{ServiceType: "Printer"})
	if err != nil || res2.LinksQueried != 0 || len(res2.Offers) != 0 {
		t.Fatalf("unadvertised import = %+v, %v", res2, err)
	}
}

func TestShardedImportValidation(t *testing.T) {
	st := newShardedBank(t, 2)
	if _, err := st.Import(ImportRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty type = %v", err)
	}
	if _, err := st.Import(ImportRequest{ServiceType: "Ghost"}); !errors.Is(err, ErrTypeUnknown) {
		t.Fatalf("unknown type = %v", err)
	}
	if _, err := st.Import(ImportRequest{ServiceType: "BankTeller", MaxMatches: -1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative bounds = %v", err)
	}
}

func TestShardedRebalanceAddShard(t *testing.T) {
	repo := repoWithBank(t)
	st := NewSharded("front", repo, 0)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := st.AddShard(name, New(name, repo)); err != nil {
			t.Fatal(err)
		}
	}
	const offers = 40
	for i := 0; i < offers; i++ {
		if _, err := st.Export("BankTeller", refOf("BankTeller", uint64(i+1)), values.Null()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Export("BankManager", refOf("BankManager", 1000), values.Null()); err != nil {
		t.Fatal(err)
	}

	changesBefore := st.ShardStats().Rebalances
	if err := st.AddShard("s2", New("s2", repo)); err != nil {
		t.Fatal(err)
	}
	if got := st.ShardStats().Rebalances; got != changesBefore+1 {
		t.Fatalf("ring changes = %d after AddShard, want %d", got, changesBefore+1)
	}
	got, err := st.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != offers+1 {
		t.Fatalf("after add: %d offers (want %d)", len(got), offers+1)
	}
	// Identity preserved across migration: no duplicate ids.
	seen := map[string]bool{}
	for _, o := range got {
		if seen[o.ID] {
			t.Fatalf("duplicate offer id %s after rebalance", o.ID)
		}
		seen[o.ID] = true
	}
	if st.ShardStats().Rebalances != 3 { // two initial AddShards + this one
		t.Fatalf("rebalances = %d", st.ShardStats().Rebalances)
	}
}

func TestShardedRebalanceRemoveShard(t *testing.T) {
	st := newShardedBank(t, 3)
	ids := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		id, err := st.Export("BankTeller", refOf("BankTeller", uint64(i+1)), values.Null())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.RemoveShard("s1"); err != nil {
		t.Fatal(err)
	}
	got, err := st.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("after remove: %d offers", len(got))
	}
	// The drained shard leaves LegStats; the survivors home every offer.
	legs := st.LegStats()
	if _, ok := legs["s1"]; ok || len(legs) != 2 || legs["s0"].Offers+legs["s2"].Offers != 30 {
		t.Fatalf("legs after remove = %+v", legs)
	}
	// Withdraw still works even for ids minted by the departed shard
	// (prefix miss falls back to the survivors).
	for _, id := range ids {
		if err := st.Withdraw(id); err != nil {
			t.Fatalf("withdraw %s after remove: %v", id, err)
		}
	}
	if err := st.RemoveShard("ghost"); err == nil {
		t.Fatal("removing unknown shard accepted")
	}
	if err := st.RemoveShard("s0"); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveShard("s2"); err == nil {
		t.Fatal("removing last shard accepted")
	}
}

// TestShardedRebalanceNoBlackout is the -race guarantee the issue asks
// for: while a shard joins and buckets migrate, a concurrent import of a
// live offer answers from the old or the new owner — never a miss.
func TestShardedRebalanceNoBlackout(t *testing.T) {
	repo := repoWithBank(t)
	st := NewSharded("front", repo, 0)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := st.AddShard(name, New(name, repo)); err != nil {
			t.Fatal(err)
		}
	}
	const offers = 64
	for i := 0; i < offers; i++ {
		if _, err := st.Export("BankTeller", refOf("BankTeller", uint64(i+1)), values.Null()); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var misses atomic.Uint64
	var probes atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := st.Import(ImportRequest{ServiceType: "BankTeller"})
				probes.Add(1)
				if err != nil || len(got) < offers {
					misses.Add(1)
				}
			}
		}()
	}

	// Let probes interleave with each ring change (a single-core scheduler
	// may otherwise run the whole rebalance before any probe).
	waitProbes := func(target uint64) {
		for probes.Load() < target {
			runtime.Gosched()
		}
	}
	waitProbes(1)
	for i := 2; i < 6; i++ {
		if err := st.AddShard(fmt.Sprintf("s%d", i), New(fmt.Sprintf("s%d", i), repo)); err != nil {
			t.Fatal(err)
		}
		waitProbes(probes.Load() + 2)
	}
	if err := st.RemoveShard("s0"); err != nil {
		t.Fatal(err)
	}
	waitProbes(probes.Load() + 2)
	stop.Store(true)
	wg.Wait()

	if probes.Load() == 0 {
		t.Fatal("no probes ran")
	}
	if misses.Load() != 0 {
		t.Fatalf("%d of %d probes missed a live offer during rebalance", misses.Load(), probes.Load())
	}
	if got, _ := st.Import(ImportRequest{ServiceType: "BankTeller"}); len(got) != offers {
		t.Fatalf("settled offer count = %d", len(got))
	}
}

// gatedShard holds the first offer installed at it — a drain's copy —
// until released: the window in which a client call races the drain.
type gatedShard struct {
	*Trader
	once             sync.Once
	entered, release chan struct{}
}

func (g *gatedShard) Install(o Offer) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Trader.Install(o)
}

// TestShardedWithdrawRacingDrainStaysWithdrawn: an offer withdrawn after
// the drain read its bucket, but before the copy landed at the new owner,
// does not come back there.
func TestShardedWithdrawRacingDrainStaysWithdrawn(t *testing.T) {
	st := newShardedBank(t, 1)
	id, err := st.Export("BankTeller", refOf("BankTeller", 1), values.Null())
	if err != nil {
		t.Fatal(err)
	}
	// A shard name BankTeller's bucket moves to when it joins.
	name := ""
	for i := 1; name == ""; i++ {
		ring, n := hashring.New(), fmt.Sprintf("s%d", i)
		for _, m := range []string{"s0", n} {
			if err := ring.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		if ring.Owner("BankTeller") == n {
			name = n
		}
	}
	gated := &gatedShard{Trader: New(name, st.types), entered: make(chan struct{}), release: make(chan struct{})}
	added := make(chan error, 1)
	go func() { added <- st.AddShard(name, gated) }()
	<-gated.entered
	if err := st.Withdraw(id); err != nil {
		t.Fatalf("withdraw %s mid-drain: %v", id, err)
	}
	close(gated.release)
	if err := <-added; err != nil {
		t.Fatal(err)
	}
	if got, err := st.Import(ImportRequest{ServiceType: "BankTeller"}); err != nil || len(got) != 0 {
		t.Fatalf("a withdrawn offer is back after the drain: %v, %v", offerIDs(got), err)
	}
}

func TestShardedNesting(t *testing.T) {
	// A sharded trader satisfies Shard, so it can itself be a shard of a
	// bigger front-end.
	repo := repoWithBank(t)
	inner := NewSharded("inner", repo, 0)
	if err := inner.AddShard("i0", New("i0", repo)); err != nil {
		t.Fatal(err)
	}
	outer := NewSharded("outer", repo, 0)
	if err := outer.AddShard("inner", inner); err != nil {
		t.Fatal(err)
	}
	if _, err := outer.Export("BankTeller", refOf("BankTeller", 1), values.Null()); err != nil {
		t.Fatal(err)
	}
	got, err := outer.Import(ImportRequest{ServiceType: "BankTeller"})
	if err != nil || len(got) != 1 {
		t.Fatalf("nested import = %v, %v", got, err)
	}
}

// TestShardedInstrument: an instrumented front-end records, per import,
// the shard legs it queried and its latency under the bundle's names;
// detaching stops both.
func TestShardedInstrument(t *testing.T) {
	fe, _ := frontEnd(t, repoWithBank(t), "A", 2)
	if _, err := fe.Export("BankTeller", refOf("BankTeller", 1), values.Null()); err != nil {
		t.Fatal(err)
	}
	m := mgmt.New()
	ins := m.TraderShards("A")
	fe.Instrument(ins)
	req := ImportRequest{ServiceType: "BankTeller"}
	for i := 0; i < 3; i++ {
		if offers, err := fe.Import(req); err != nil || len(offers) != 1 {
			t.Fatalf("import %d = %v, %v", i, offers, err)
		}
	}
	if s := ins.ShardsPerImport.Snapshot(); s.Count != 3 || s.Sum != 3 {
		t.Fatalf("shards per import = %d imports, %d legs; want 3, 3", s.Count, s.Sum)
	}
	if n := ins.ImportLatency.Snapshot().Count; n != 3 {
		t.Fatalf("import latency count = %d, want 3", n)
	}
	dump := m.Registry.Dump()
	for _, name := range []string{"trader.A.shards.shards_per_import", "trader.A.shards.import_latency_ns"} {
		if !strings.Contains(dump, name) {
			t.Fatalf("registry dump lacks %s:\n%s", name, dump)
		}
	}
	fe.Instrument(nil)
	if _, err := fe.Import(req); err != nil {
		t.Fatal(err)
	}
	if ins.ShardsPerImport.Snapshot().Count != 3 || ins.ImportLatency.Snapshot().Count != 3 {
		t.Fatal("a detached front-end still records")
	}
}
