package trader

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/constraint"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

// An import selects: each store keeps only its best k under its read lock,
// and every leg answers the sub-request with its own best k. The reference
// below is the path that selection replaced — every store copies out every
// match, the origin merges them all, sorts them stably and only then
// truncates — and the oracle holds the two to the same answers.

// refImport answers req from x by copying every match.
func refImport(t *testing.T, x Importer, req ImportRequest) []Offer {
	t.Helper()
	all := refCollect(t, x, req, req.MaxHops)
	if kind := req.Preference.Kind; kind == PrefMax || kind == PrefMin {
		pref, err := constraint.Parse(req.Preference.Expr)
		if err != nil {
			t.Fatal(err)
		}
		type row struct {
			o     Offer
			score float64
			ok    bool
		}
		rows := make([]row, len(all))
		for i, o := range all {
			rows[i].o = o
			if v, err := pref.Eval(o.Properties); err == nil {
				rows[i].score, rows[i].ok = constraint.AsFloat(v)
				rows[i].ok = rows[i].ok && !math.IsNaN(rows[i].score) // NaN is unscoreable
			}
		}
		sort.SliceStable(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			if a.ok != b.ok || !a.ok {
				return a.ok // scoreable offers ahead of unscoreable
			}
			if kind == PrefMax {
				return a.score > b.score
			}
			return a.score < b.score
		})
		for i, r := range rows {
			all[i] = r.o
		}
	}
	if req.MaxMatches > 0 && len(all) > req.MaxMatches {
		all = all[:req.MaxMatches]
	}
	return all
}

// refCollect is every offer x holds that matches req, in the order the
// copy-all path merged them: a store's in export order; a front-end's
// previous owners, then its current ones, then its links' in link-name
// order; the first occurrence of each offer id only.
func refCollect(t *testing.T, x Importer, req ImportRequest, hops int) []Offer {
	t.Helper()
	var out []Offer
	seen := make(map[string]bool)
	add := func(offers []Offer) {
		for _, o := range offers {
			if !seen[o.ID] {
				seen[o.ID] = true
				out = append(out, o)
			}
		}
	}
	switch x := x.(type) {
	case *Trader:
		expr, err := constraint.Parse(req.Constraint)
		if err != nil {
			t.Fatal(err)
		}
		cands := closureOver(&x.closure, &x.mu, x.buckets, x.types, req.ServiceType)
		var local []Offer
		var seqs []uint64
		x.mu.RLock()
		for _, bt := range cands {
			for _, e := range x.buckets[bt] {
				if ok, err := expr.Matches(e.offer.Properties); err == nil && ok {
					local = append(local, *e.offer)
					seqs = append(seqs, e.seq)
				}
			}
		}
		x.mu.RUnlock()
		order := make([]int, len(local))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return seqs[order[i]] < seqs[order[j]] })
		for _, i := range order {
			add(local[i : i+1])
		}
	case *ShardedTrader:
		_, oldLegs, curLegs := x.targetShards(req.ServiceType, nil)
		for _, leg := range append(oldLegs, curLegs...) {
			add(refCollect(t, leg.imp, req, hops))
		}
		if hops > 0 {
			for _, l := range x.linkLegs() {
				add(refCollect(t, l.imp, req, hops-1))
			}
		}
	default:
		t.Fatalf("no reference for %T", x)
	}
	return out
}

// selectionRepo is the bank repository plus a BankDirector, so a
// BankTeller import spans three buckets, and a Fax type no import here
// asks for.
func selectionRepo(t *testing.T) typerepo.Repository {
	repo := repoWithBank(t)
	director := types.Extend("BankDirector", managerT(), types.Op("Audit", nil, types.Term("OK")))
	fax := types.OpInterface("Fax", types.Announce("Send", types.P("page", values.TBytes())))
	for _, it := range []*types.Interface{director, fax} {
		if err := repo.RegisterInterface(it); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// selectionFixture is one offer set held four ways: by a trader, by a
// one-shard and a four-shard front-end, and across a federated diamond of
// one-shard front-ends A → {B, C} → D whose B and C hold some offers under
// the same id.
type selectionFixture struct {
	deployments []deployment
	stores      []*Trader // every trader holding offers
}

// deployment is one way of holding the offer set: where imports start,
// and the hop budgets they are made with.
type deployment struct {
	name   string
	origin Importer
	hops   []int
}

func newSelectionFixture(t *testing.T, repo typerepo.Repository, seed int64) *selectionFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &selectionFixture{}
	single := New("single", repo)
	f.stores = append(f.stores, single)
	sharded := func(name string, n int) *ShardedTrader {
		fe, stores := frontEnd(t, repo, name, n)
		f.stores = append(f.stores, stores...)
		return fe
	}
	one, four := sharded("one", 1), sharded("four", 4)
	fed := []*ShardedTrader{sharded("A", 1), sharded("B", 1), sharded("C", 1), sharded("D", 1)}
	fed[0].Link("b", fed[1])
	fed[0].Link("c", fed[2])
	fed[1].Link("d", fed[3])
	fed[2].Link("d", fed[3])

	// Few distinct costs make heavy ties; some offers have no cost or a NaN
	// one, which no preference can score.
	kinds := []string{"BankTeller", "BankManager", "BankDirector", "Printer"}
	distinct := []int{1, 3, 1000}[rng.Intn(3)]
	n := rng.Intn(60)
	for i := 0; i < n; i++ {
		typ := kinds[rng.Intn(len(kinds))]
		fields := []values.Field{values.F("zone", values.Str(fmt.Sprintf("z%d", rng.Intn(3))))}
		switch r := rng.Intn(20); {
		case r < 3:
		case r < 5:
			fields = append(fields, values.F("cost", values.Float(math.NaN())))
		case r < 8:
			fields = append(fields, values.F("cost", values.Float(float64(rng.Intn(distinct))+0.5)))
		default:
			fields = append(fields, values.F("cost", values.Int(int64(rng.Intn(distinct)))))
		}
		ref, props := refOf(typ, uint64(i+1)), values.Record(fields...)
		for _, tr := range []Shard{single, one, four} {
			if _, err := tr.Export(typ, ref, props); err != nil {
				t.Fatal(err)
			}
		}
		home := fed[i%len(fed)]
		id, err := home.Export(typ, ref, props)
		if err != nil {
			t.Fatal(err)
		}
		if home == fed[1] && rng.Intn(2) == 0 {
			b, _ := home.part.View().Member("B-s0")
			o, _ := b.shard.(*Trader).Offer(id)
			if err := fed[2].Install(o); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Mid-migration at the four-shard front-end: BankManager's owner is
	// leaving, and its offers are on it, which imports read first, and,
	// under the same ids, on the shard they are moving to.
	from, _, _ := four.part.View().Owner("BankManager")
	holdWindow(t, four, from)
	owner, _, _ := four.part.View().Owner("BankManager")
	store := func(name string) *Trader {
		leg, _ := four.part.View().Member(name)
		return leg.shard.(*Trader)
	}
	for _, e := range store(from).buckets["BankManager"] {
		if err := store(owner).Install(*e.offer); err != nil {
			t.Fatal(err)
		}
	}

	f.deployments = []deployment{
		{"trader", single, []int{0}},
		{"one shard", one, []int{0}},
		{"four shards mid-migration", four, []int{0}},
		{"federated diamond", fed[0], []int{1, 2}},
	}
	return f
}

// holdWindow starts removing shard leaving from fe and holds the change in
// its drain, moving nothing, until the test ends: meanwhile fe's ring has
// flipped and the window is open, the leaving shard the previous owner of
// every type it held.
func holdWindow(t *testing.T, fe *ShardedTrader, leaving string) {
	held, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- fe.part.Remove(leaving, func(string, *shardLeg, func(string) (*shardLeg, bool)) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	t.Cleanup(func() {
		close(release)
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
}

// selectionRequests is every request the oracle puts to a deployment.
func selectionRequests(hops []int) []ImportRequest {
	var reqs []ImportRequest
	for _, st := range []string{"BankTeller", "Printer"} {
		for _, c := range []string{"", "zone != 'z2'"} {
			for _, pref := range []Preference{{Kind: PrefFirst}, {Kind: PrefRandom}, {Kind: PrefMax, Expr: "cost"}, {Kind: PrefMin, Expr: "cost"}} {
				// MaxInt: a bound off the wire sizes nothing up front.
				for _, k := range []int{0, 1, 10, 1000, math.MaxInt} {
					for _, h := range hops {
						reqs = append(reqs, ImportRequest{ServiceType: st, Constraint: c, Preference: pref, MaxMatches: k, MaxHops: h})
					}
				}
			}
		}
	}
	return reqs
}

// checkSelection holds one import's answer to the reference: the same
// offers in the same order, or under PrefRandom as many offers as the
// reference keeps, none twice, all drawn from every match.
func checkSelection(t *testing.T, who string, origin Importer, req ImportRequest) {
	t.Helper()
	got, err := origin.Import(req)
	if err != nil {
		t.Fatalf("%s %+v: %v", who, req, err)
	}
	want := refImport(t, origin, req)
	if req.Preference.Kind != PrefRandom {
		if fmt.Sprint(offerIDs(got)) != fmt.Sprint(offerIDs(want)) {
			t.Errorf("%s %+v:\n got %v\nwant %v", who, req, offerIDs(got), offerIDs(want))
		}
		return
	}
	all := req
	all.MaxMatches = 0
	pool := make(map[string]bool)
	for _, o := range refImport(t, origin, all) {
		pool[o.ID] = true
	}
	if len(got) != len(want) {
		t.Errorf("%s %+v: %d offers, the reference keeps %d", who, req, len(got), len(want))
	}
	for _, o := range got {
		if !pool[o.ID] {
			t.Errorf("%s %+v: offer %s is not a match, or is there twice", who, req, o.ID)
		}
		pool[o.ID] = false
	}
}

func offerIDs(offers []Offer) []string {
	out := make([]string, len(offers))
	for i, o := range offers {
		out[i] = o.ID
	}
	return out
}

// TestImportSelectionMatchesCopyAll is the oracle for selection: on seeded
// random offer sets, every deployment answers every request as the
// copy-all path does — and still does while offers are being modified and
// exported beside the imports.
func TestImportSelectionMatchesCopyAll(t *testing.T) {
	repo := selectionRepo(t)
	for seed := int64(1); seed <= 16; seed++ {
		f := newSelectionFixture(t, repo, seed)
		for _, d := range f.deployments {
			for _, req := range selectionRequests(d.hops) {
				checkSelection(t, fmt.Sprintf("seed %d, %s", seed, d.name), d.origin, req)
			}
		}
	}

	t.Run("concurrent Modify and Export", func(t *testing.T) {
		f := newSelectionFixture(t, repo, 99)
		var wg sync.WaitGroup
		for _, tr := range f.stores {
			wg.Add(1)
			go func(tr *Trader) {
				defer wg.Done()
				tr.mu.RLock()
				ids := make([]string, 0, len(tr.offers))
				for id := range tr.offers {
					ids = append(ids, id)
				}
				tr.mu.RUnlock()
				for n := uint64(0); n < 300; n++ {
					// Modify puts back the properties the offer has, so every
					// answer stays what the reference says; a Fax offer is of a
					// type no import asks for.
					if len(ids) > 0 {
						id := ids[n%uint64(len(ids))]
						if o, err := tr.Offer(id); err == nil {
							if err := tr.Modify(id, o.Properties); err != nil {
								t.Error(err)
								return
							}
						}
					}
					if n%10 == 0 {
						if _, err := tr.Export("Fax", refOf("Fax", 1_000_000+n), values.Null()); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(tr)
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		for {
			for _, d := range f.deployments {
				for _, req := range selectionRequests(d.hops) {
					checkSelection(t, d.name, d.origin, req)
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	})
}

// TestNaNScoresRankLast: a NaN score orders against nothing, so it ranks
// as unscoreable — after every offer a preference can score — and a
// trader and a four-shard front-end holding the same offers give the same
// answer. The NaN offers share one bucket, which keeps their own order
// the same in both.
func TestNaNScoresRankLast(t *testing.T) {
	repo := selectionRepo(t)
	single := New("single", repo)
	four := NewSharded("four", repo, 0)
	for i := 0; i < 4; i++ {
		sn := fmt.Sprintf("four-s%d", i)
		if err := four.AddShard(sn, New(sn, repo)); err != nil {
			t.Fatal(err)
		}
	}
	kinds := []string{"BankTeller", "BankManager", "BankDirector"}
	for i := 0; i < 24; i++ {
		typ, cost := kinds[i%len(kinds)], values.Float(float64((i*7)%24))
		if i%4 == 1 {
			typ, cost = "BankTeller", values.Float(math.NaN())
		}
		for _, tr := range []Shard{single, four} {
			if _, err := tr.Export(typ, refOf(typ, uint64(i+1)), rec(values.F("cost", cost))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, row := range []struct {
		name string
		req  ImportRequest
	}{
		{"min", ImportRequest{ServiceType: "BankTeller", Preference: Preference{Kind: PrefMin, Expr: "cost"}}},
		{"max", ImportRequest{ServiceType: "BankTeller", Preference: Preference{Kind: PrefMax, Expr: "cost"}}},
		{"min, best 10", ImportRequest{ServiceType: "BankTeller", Preference: Preference{Kind: PrefMin, Expr: "cost"}, MaxMatches: 10}},
		{"max, best 20", ImportRequest{ServiceType: "BankTeller", Preference: Preference{Kind: PrefMax, Expr: "cost"}, MaxMatches: 20}},
	} {
		t.Run(row.name, func(t *testing.T) {
			want, err := single.Import(row.req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := four.Import(row.req)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := nonces(got), nonces(want); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("four shards and the trader differ\n got %v\nwant %v", g, w)
			}
			nan := false
			for _, o := range want {
				v, _ := o.Properties.FieldByName("cost")
				f, _ := v.AsFloat()
				if math.IsNaN(f) {
					nan = true
				} else if nan {
					t.Errorf("a scoreable offer ranks after a NaN one: %v", nonces(want))
					break
				}
			}
		})
	}
}

// TestMergeDedupesPastTheStackBuffer: an offer installed on two shards —
// the shape of an offer mid-migration — answers from both legs of an
// import, and with MaxMatches 0 more than mergeBuf matches arrive, so the
// merge runs on the heap. Under every preference the answer is the
// copy-all reference's; the offer is in it once, and under PrefFirst at
// its earliest merge position.
func TestMergeDedupesPastTheStackBuffer(t *testing.T) {
	repo := selectionRepo(t)
	four, _ := frontEnd(t, repo, "four", 4)
	kinds := []string{"BankTeller", "BankManager", "BankDirector"}
	export := func(from, to int) {
		for i := from; i < to; i++ {
			typ := kinds[i%len(kinds)]
			if _, err := four.Export(typ, refOf(typ, uint64(i+1)), rec(values.F("cost", values.Int(int64(i%7))))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Halfway, copy one early offer of a type onto the owner of another: a
	// BankTeller import asks both shards, both answer it, and neither copy
	// is at the end of its leg's answer.
	export(0, mergeBuf)
	v := four.part.View()
	var dup Offer
	for _, from := range kinds {
		for _, to := range kinds {
			_, src, _ := v.Owner(from)
			_, dst, _ := v.Owner(to)
			if src == dst || dup.ID != "" {
				continue
			}
			store := src.shard.(*Trader)
			store.mu.RLock()
			dup = *store.buckets[from][1].offer
			store.mu.RUnlock()
			if err := dst.shard.Install(dup); err != nil {
				t.Fatal(err)
			}
		}
	}
	if dup.ID == "" {
		t.Fatal("the three bank types share one shard")
	}
	export(mergeBuf, 2*mergeBuf)
	for _, pref := range []Preference{{Kind: PrefFirst}, {Kind: PrefMax, Expr: "cost"}, {Kind: PrefRandom}} {
		req := ImportRequest{ServiceType: "BankTeller", Preference: pref}
		res, err := four.ImportEx(req)
		if err != nil || res.LinksQueried < 2 || len(res.Offers) <= mergeBuf {
			t.Fatalf("%+v: %d offers from %d legs, %v", pref, len(res.Offers), res.LinksQueried, err)
		}
		checkSelection(t, "duplicated offer", four, req)
		at := -1
		for i, o := range res.Offers {
			if o.ID != dup.ID {
				continue
			}
			if at >= 0 {
				t.Errorf("%+v: offer %s at %d and %d", pref, dup.ID, at, i)
			}
			at = i
		}
		if at < 0 {
			t.Errorf("%+v: offer %s is missing", pref, dup.ID)
		}
		if pref.Kind != PrefFirst {
			continue
		}
		for i, o := range refCollect(t, four, req, 0) {
			if o.ID == dup.ID && i != at {
				t.Errorf("PrefFirst: offer %s at %d, its earliest merge position is %d", dup.ID, at, i)
			}
		}
	}
}

// benchShaped builds a four-shard front-end of the trader bench's shape:
// 50 service types in a three-level hierarchy — five roots, three
// mid-level types under each, two leaves under each of those — with
// offers spread evenly over the types, each carrying the bench's four
// properties and a unique cost.
func benchShaped(t *testing.T, offers int) *ShardedTrader {
	t.Helper()
	repo := typerepo.NewReplicated(typerepo.New(), 2)
	front := NewSharded("front", repo, 0)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("shard%d", i)
		if err := front.AddShard(name, New(name, repo)); err != nil {
			t.Fatal(err)
		}
	}
	// Subtyping is structural and imports follow it, so each type extends
	// its parent's and adds a marker operation of its own.
	base := types.OpInterface("SvcBase", types.Op("Query",
		types.Params(types.P("q", values.TString())), types.Term("OK", types.P("answer", values.TString()))))
	var names []string
	var ifaces []*types.Interface
	for i := 0; i < 50; i++ {
		name, parent := fmt.Sprintf("SvcR%d", i), -1
		switch {
		case i >= 20:
			name, parent = fmt.Sprintf("SvcL%d", i-20), 5+(i-20)/2
		case i >= 5:
			name, parent = fmt.Sprintf("SvcM%d", i-5), (i-5)/3
		}
		super := base
		if parent >= 0 {
			super = ifaces[parent]
		}
		it := types.Extend(name, super, types.Op("Mark"+name, types.Params(), types.Term("OK")))
		if err := repo.RegisterInterface(it); err != nil {
			t.Fatal(err)
		}
		names, ifaces = append(names, name), append(ifaces, it)
	}
	rng := rand.New(rand.NewSource(1))
	regions := []string{"au", "br", "ca", "de", "fr", "in", "jp", "us"}
	for i := 0; i < offers; i++ {
		typ := names[i%len(names)]
		props := values.Record(
			values.F("cost", values.Int(rng.Int63n(1_000_000)<<24|int64(i+1))),
			values.F("load", values.Int(rng.Int63n(100))),
			values.F("region", values.Str(regions[rng.Intn(len(regions))])),
			values.F("secure", values.Bool(rng.Intn(2) == 0)),
		)
		if _, err := front.Export(typ, refOf(typ, uint64(i+1)), props); err != nil {
			t.Fatal(err)
		}
	}
	return front
}

// importAllocs is what one warmed-up import of the best 10 by min cost
// allocates at front.
func importAllocs(t *testing.T, front *ShardedTrader, serviceType, constraint string) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, importOnce(t, front, serviceType, constraint))
}

// importBytes is how many bytes that import allocates, averaged over 200
// runs, measured as testing.AllocsPerRun counts allocations.
func importBytes(t *testing.T, front *ShardedTrader, serviceType, constraint string) float64 {
	t.Helper()
	return bytesPerRun(importOnce(t, front, serviceType, constraint))
}

// bytesPerRun is how many bytes run allocates, averaged over 200 runs
// after one to warm up.
func bytesPerRun(run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 200
}

// importOnce is one import of the best 10 by min cost at front.
func importOnce(t *testing.T, front *ShardedTrader, serviceType, constraint string) func() {
	return importEach(t, front, serviceType, func() string { return constraint })
}

// importEach is importOnce under the constraint text next returns for
// each import.
func importEach(t *testing.T, front *ShardedTrader, serviceType string, next func() string) func() {
	req := ImportRequest{ServiceType: serviceType,
		Preference: Preference{Kind: PrefMin, Expr: "cost"}, MaxMatches: 10}
	return func() {
		req.Constraint = next()
		if res, err := front.ImportEx(req); err != nil || len(res.Offers) != 10 {
			t.Fatalf("import %s: %d offers, %v", serviceType, len(res.Offers), err)
		}
	}
}

// firstSights numbers the texts tests make to be parsed for the first
// time, so no two are alike, in one run or across -count runs.
var firstSights atomic.Int64

// firstSight returns a maker of n constraint texts, one per call, that no
// import in this process has parsed before, each as selective as the
// budget rows' constraint: every offer's cost is positive.
func firstSight(t *testing.T, n int) func() string {
	t.Helper()
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("load < 90 and region != 'fr' and cost != %d", -firstSights.Add(1))
	}
	return func() string {
		if len(texts) == 0 {
			t.Fatal("out of first sights")
		}
		src := texts[0]
		texts = texts[1:]
		return src
	}
}

// TestImportAllocBudget is the absolute floor under trade_import's
// allocs_per_op and alloc_bytes_per_op: an import copies only the offers
// it returns, once, so what it allocates depends on how many shards it
// asks — a leaf type's one, a mid-level type's three buckets, a root's ten
// — and not on how many offers match. A leg answers by reference, the
// constraint and the preference come from the parse memo, and a multi-leg
// fan-out reuses its scratch and hands its legs to parked workers, so
// every import allocates only the ten offers it returns (1,680 B), in one
// slice, whichever row and under -race too. A constraint text the memo has
// never seen is compiled into the import's reused parse scratch, so a
// first sight allocates no more.
func TestImportAllocBudget(t *testing.T) {
	front := benchShaped(t, 10_000)
	const constraint = "load < 90 and region != 'fr'"
	for _, row := range []struct {
		name, serviceType string
		allocs, bytes     float64
	}{
		{"leaf", "SvcL0", 1, 2_000},      // 1 and 1,792 B, the answer: one shard, asked inline
		{"mid-level", "SvcM0", 1, 2_050}, // 1 and 1,792 B, the answer: three buckets on two shards
		{"root", "SvcR0", 1, 2_100},      // 1 and 1,792 B, the answer: four shards
	} {
		t.Run(row.name, func(t *testing.T) {
			if allocs := importAllocs(t, front, row.serviceType, constraint); allocs > row.allocs {
				t.Errorf("%s import = %v allocs, budget %v", row.serviceType, allocs, row.allocs)
			}
			if bytes := importBytes(t, front, row.serviceType, constraint); bytes > row.bytes {
				t.Errorf("%s import = %.0f B, budget %v", row.serviceType, bytes, row.bytes)
			}
		})
		t.Run(row.name+" first sight", func(t *testing.T) {
			// AllocsPerRun and bytesPerRun each run once to warm up and 200
			// times measured.
			if allocs := testing.AllocsPerRun(200, importEach(t, front, row.serviceType, firstSight(t, 201))); allocs > row.allocs {
				t.Errorf("%s import of a new constraint = %v allocs, budget %v", row.serviceType, allocs, row.allocs)
			}
			if bytes := bytesPerRun(importEach(t, front, row.serviceType, firstSight(t, 201))); bytes > row.bytes {
				t.Errorf("%s import of a new constraint = %.0f B, budget %v", row.serviceType, bytes, row.bytes)
			}
		})
	}
	t.Run("flat in matches", func(t *testing.T) {
		small, large := importAllocs(t, benchShaped(t, 2_000), "SvcR0", ""), importAllocs(t, front, "SvcR0", "")
		if small != large {
			t.Errorf("root import = %v allocs over 2,000 offers, %v over 10,000", small, large)
		}
	})
}

// TestFanScratchKeepsNothing: once a multi-leg import has merged, every
// fan-out scratch waiting to be reused holds no hit, no leg and no
// request, so a kept slab keeps no offer alive.
func TestFanScratchKeepsNothing(t *testing.T) {
	front := benchShaped(t, 2_000)
	importOnce(t, front, "SvcR0", "load < 90")()
	var kept []*fanScratch
	for len(fanScratches) > 0 {
		kept = append(kept, <-fanScratches)
	}
	defer func() {
		for _, s := range kept {
			fanScratches <- s
		}
	}()
	if len(kept) == 0 {
		t.Fatal("a multi-leg import kept no scratch")
	}
	for _, s := range kept {
		for i, h := range s.slab[:cap(s.slab)] {
			if h != (hit{}) {
				t.Fatalf("slab[%d] = %+v after the merge", i, h)
			}
		}
		for i, c := range s.calls[:cap(s.calls)] {
			if c.l != (leg{}) || c.hits != nil || c.err != nil {
				t.Fatalf("calls[%d] = %+v after the merge", i, c)
			}
		}
		if s.q != (importQuery{}) || s.sub != (ImportRequest{}) {
			t.Errorf("a scratch keeps the import's query or request: %+v, %+v", s.q, s.sub)
		}
	}
}

// TestParseScratchKeepsNothing: once an import whose constraint and
// preference the memo did not hold has answered, every parse scratch
// waiting to be reused holds no source and no node string, so it pins no
// request's text; it keeps the program it grew, but not one compiled from
// a source longer than parseScratchMaxLen.
func TestParseScratchKeepsNothing(t *testing.T) {
	front := benchShaped(t, 2_000)
	long := "load < 90" + strings.Repeat(" and load < 90", parseScratchMaxLen/14)
	for _, c := range []struct {
		constraint string
		grown      bool
	}{
		{firstSight(t, 1)(), true},
		{long, false},
	} {
		req := ImportRequest{ServiceType: "SvcR0", Constraint: c.constraint, MaxMatches: 10,
			Preference: Preference{Kind: PrefMax, Expr: fmt.Sprintf("cost - %d", firstSights.Add(1))}}
		if res, err := front.ImportEx(req); err != nil || len(res.Offers) != 10 {
			t.Fatalf("import: %d offers, %v", len(res.Offers), err)
		}
		var kept []*parseScratch
		for len(parseScratches) > 0 {
			kept = append(kept, <-parseScratches)
		}
		if len(kept) == 0 {
			t.Fatal("an import that compiled into its scratch kept none")
		}
		for k, s := range kept {
			for i := range s {
				v := reflect.ValueOf(&s[i]).Elem()
				if src := v.FieldByName("src").String(); src != "" {
					t.Errorf("buffer %d keeps the source %q", i, src)
				}
				prog := v.FieldByName("prog")
				for n := 0; n < prog.Cap(); n++ {
					if str := prog.Slice(0, prog.Cap()).Index(n).FieldByName("str").String(); str != "" {
						t.Errorf("buffer %d's node %d keeps %q", i, n, str)
					}
				}
				// The import's own scratch went back last.
				if n := prog.Cap(); k == len(kept)-1 && i == 0 && (n > len(c.constraint) || c.grown != (n > 0)) {
					t.Errorf("constraint %q: the kept buffer's program holds %d nodes", c.constraint, n)
				}
			}
		}
		for _, s := range kept {
			parseScratches <- s
		}
	}
}

// TestFirstSightImportsRace: eight goroutines import root types, whose
// closures span every shard of the bench-shaped front-end, each with a
// constraint and a preference no import has parsed before, so every import
// compiles both into its own parse scratch while its legs evaluate them on
// other goroutines and other imports take and give back scratches. Each
// answer is the copy-all reference's. scripts/check.sh runs it 20 times
// under the race detector.
func TestFirstSightImportsRace(t *testing.T) {
	front := benchShaped(t, 2_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				n := firstSights.Add(1)
				req := ImportRequest{
					ServiceType: fmt.Sprintf("SvcR%d", (g+i)%5),
					Constraint:  fmt.Sprintf("load < %d and cost != %d", 20+n%80, -n),
					Preference:  Preference{Kind: PrefMax, Expr: fmt.Sprintf("cost - %d", n)},
					MaxMatches:  1 + int(n%20),
				}
				res, err := front.ImportEx(req)
				if err != nil || res.LinksQueried < 2 {
					t.Errorf("import %+v: %d legs, %v; want a multi-leg import", req, res.LinksQueried, err)
					return
				}
				if got, want := offerIDs(res.Offers), offerIDs(refImport(t, front, req)); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("import %+v:\n got %v\nwant %v", req, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLoneLegCostsWhatTheStoreCosts: an import whose subtype closure lands
// on one shard is that shard's import — the front-end builds no leg slice
// and no per-leg answers — so it allocates exactly what the bare store
// does: at a one-shard front-end over the store's own offers, and at the
// bench-shaped four-shard one for every type whose closure one shard holds.
// A multi-leg import, whose scratch is reused and whose legs run on parked
// workers, allocates exactly what a bare store of every offer does.
func TestLoneLegCostsWhatTheStoreCosts(t *testing.T) {
	const constraint = "load < 90 and region != 'fr'"
	four := benchShaped(t, 2_000)
	bare := New("bare", four.types)
	one := NewSharded("one", four.types, 0)
	if err := one.AddShard("one-0", New("one-0", four.types)); err != nil {
		t.Fatal(err)
	}
	for _, leg := range four.part.View().Members() {
		for _, bucket := range leg.shard.(*Trader).buckets {
			for _, e := range bucket {
				if err := bare.Install(*e.offer); err != nil {
					t.Fatal(err)
				}
				if err := one.Install(*e.offer); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Run("one shard", func(t *testing.T) {
		for _, typ := range []string{"SvcL0", "SvcM0", "SvcR0"} {
			if got, want := importAllocs(t, one, typ, constraint), storeAllocs(t, bare, typ, constraint); got != want {
				t.Errorf("%s: one-shard front-end = %v allocs, the store %v", typ, got, want)
			}
		}
	})
	t.Run("four shards", func(t *testing.T) {
		lone, multi := 0, 0
		for typ := range four.advertised {
			_, oldLegs, curLegs := four.targetShards(typ, nil)
			if len(oldLegs)+len(curLegs) != 1 {
				multi++
				if got, want := importAllocs(t, four, typ, constraint), storeAllocs(t, bare, typ, constraint); got != want {
					t.Errorf("%s: four-shard front-end over %d legs = %v allocs, the store of every offer %v",
						typ, len(oldLegs)+len(curLegs), got, want)
				}
				continue
			}
			lone++
			if got, want := importAllocs(t, four, typ, constraint), storeAllocs(t, curLegs[0].imp.(*Trader), typ, constraint); got != want {
				t.Errorf("%s: four-shard front-end = %v allocs, its one shard %v", typ, got, want)
			}
		}
		if lone < 30 || multi == 0 { // the 30 leaves at least, and the roots
			t.Errorf("%d of 50 types land on one shard, %d on more", lone, multi)
		}
	})
}

// storeAllocs is importAllocs at a bare store.
func storeAllocs(t *testing.T, store *Trader, serviceType, constraint string) float64 {
	t.Helper()
	req := ImportRequest{ServiceType: serviceType, Constraint: constraint,
		Preference: Preference{Kind: PrefMin, Expr: "cost"}, MaxMatches: 10}
	return testing.AllocsPerRun(200, func() {
		if res, err := store.ImportEx(req); err != nil || len(res.Offers) != 10 {
			t.Fatalf("import %s: %d offers, %v", serviceType, len(res.Offers), err)
		}
	})
}
