package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/naming"
	"repro/internal/trader"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

// The two trader workloads drive the control plane: a sharded trader over
// four in-process shards and a replicated type repository, 50 service
// types in a three-level declared hierarchy, 10,000 offers of four
// properties. trade_import reads it (98% ImportEx); trade_churn writes it
// too, and keeps registering types so every cache fenced by the type
// generation is invalidated while it is in use.

const (
	tradeShards  = 4
	tradeRoots   = 5
	tradeMids    = 15 // three under each root
	tradeLeaves  = 30 // two under each mid
	tradeTypes   = tradeRoots + tradeMids + tradeLeaves
	tradeOffers  = 10_000
	tradeCallers = 2
	maxMatches   = 10
	// checkEvery is how often an import's result is re-derived.
	checkEvery = 64
	// traceEvery is how often an operation of the traced run is recorded
	// as spans. A recorded operation runs alone, so that every shard and
	// repository call seen while it runs is its own.
	traceEvery = 64
	// typeEvery is how often trade_churn registers a fresh leaf type.
	typeEvery = 2000
	costShift = 24
)

var tradeRegions = []string{"au", "br", "ca", "de", "fr", "in", "jp", "us"}

// svcType is one service type of the bench's hierarchy.
type svcType struct {
	name  string
	iface *types.Interface
	// anc lists the type's ancestors: an offer of this type matches an
	// import of any of them.
	anc []int
}

// shadowOffer is the bench's own copy of one offer.
type shadowOffer struct {
	id     string
	typ    int
	cost   int64 // unique over all offers, so min-cost order is total
	load   int64
	region string
	secure bool
	props  values.Value
	slot   int // index in its owner's owned slice
}

// draw holds the seed-drawn constants of one import's constraint.
type draw struct {
	k, k2  int64
	region string
	cost   int64
}

// constraintTemplates pairs each constraint, as source for the trader's
// constraint language, with the same predicate in Go for the oracle.
var constraintTemplates = []struct {
	src func(d draw) string
	ok  func(o *shadowOffer, d draw) bool
}{
	{func(d draw) string { return "" },
		func(o *shadowOffer, d draw) bool { return true }},
	{func(d draw) string { return fmt.Sprintf("load < %d", d.k) },
		func(o *shadowOffer, d draw) bool { return o.load < d.k }},
	{func(d draw) string { return fmt.Sprintf("load >= %d", d.k) },
		func(o *shadowOffer, d draw) bool { return o.load >= d.k }},
	{func(d draw) string { return fmt.Sprintf("region == '%s'", d.region) },
		func(o *shadowOffer, d draw) bool { return o.region == d.region }},
	{func(d draw) string { return fmt.Sprintf("region != '%s'", d.region) },
		func(o *shadowOffer, d draw) bool { return o.region != d.region }},
	{func(d draw) string { return "secure == true" },
		func(o *shadowOffer, d draw) bool { return o.secure }},
	{func(d draw) string { return fmt.Sprintf("secure == false and load < %d", d.k) },
		func(o *shadowOffer, d draw) bool { return !o.secure && o.load < d.k }},
	{func(d draw) string { return fmt.Sprintf("load < %d and region == '%s'", d.k, d.region) },
		func(o *shadowOffer, d draw) bool { return o.load < d.k && o.region == d.region }},
	{func(d draw) string { return fmt.Sprintf("load > %d or region == '%s'", d.k, d.region) },
		func(o *shadowOffer, d draw) bool { return o.load > d.k || o.region == d.region }},
	{func(d draw) string { return fmt.Sprintf("not (load < %d)", d.k) },
		func(o *shadowOffer, d draw) bool { return !(o.load < d.k) }},
	{func(d draw) string { return fmt.Sprintf("load + 10 < %d", d.k) },
		func(o *shadowOffer, d draw) bool { return o.load+10 < d.k }},
	{func(d draw) string { return fmt.Sprintf("load * 2 >= %d", d.k) },
		func(o *shadowOffer, d draw) bool { return o.load*2 >= d.k }},
	{func(d draw) string { return fmt.Sprintf("exist cost and load <= %d", d.k) },
		func(o *shadowOffer, d draw) bool { return o.load <= d.k }},
	{func(d draw) string { return fmt.Sprintf("cost > %d", d.cost) },
		func(o *shadowOffer, d draw) bool { return o.cost > d.cost }},
	{func(d draw) string { return fmt.Sprintf("cost < %d and secure == true", d.cost) },
		func(o *shadowOffer, d draw) bool { return o.cost < d.cost && o.secure }},
	{func(d draw) string {
		return fmt.Sprintf("(load < %d or load > %d) and region != '%s'", d.k, d.k2, d.region)
	},
		func(o *shadowOffer, d draw) bool { return (o.load < d.k || o.load > d.k2) && o.region != d.region }},
}

type tradeCaller struct {
	idx     int
	rng     *rand.Rand
	zipf    *rand.Zipf
	owned   []*shadowOffer
	n       int // operations begun
	imports int
}

type tradeInstance struct {
	churn bool
	tr    *tracer

	front  *trader.ShardedTrader
	shards map[string]*trader.Trader
	repl   *typerepo.Replicated
	repo   typerepo.Repository // repl, decorated on a traced run

	// gate orders the operations the oracle and the span recorder need to
	// see alone: those hold it exclusively, everything that mutates the
	// offer set or the type set holds it shared.
	gate sync.RWMutex

	typesMu sync.RWMutex
	types   []svcType

	shadowMu sync.Mutex
	shadow   map[string]*shadowOffer
	unique   atomic.Int64 // low bits of every cost
	nonce    atomic.Uint64
	ops      atomic.Int64
	fresh    atomic.Int64

	callers []*tradeCaller

	// captured for the replays and read at the start of a traced phase
	replayMu sync.Mutex
	replays  []importReplay
	keys     []string
	stats0   trader.ShardStats
	resync0  uint64
	gen0     uint64
}

func (ti *tradeInstance) goroutines() int  { return len(ti.callers) }
func (ti *tradeInstance) sampleEvery() int { return 1 }
func (ti *tradeInstance) pids() []int      { return nil }
func (ti *tradeInstance) close()           {}

func markerOp(name string) types.Operation {
	return types.Op(name, types.Params(), types.Term("OK"))
}

// setupTrade builds the store, loads the offers and makes one import.
func setupTrade(churn bool, cfg runConfig) (instance, error) {
	ti := &tradeInstance{
		churn:  churn,
		tr:     cfg.tr,
		shards: make(map[string]*trader.Trader),
		shadow: make(map[string]*shadowOffer, tradeOffers*2),
	}
	ti.repl = typerepo.NewReplicated(typerepo.New(), 2)
	ti.repo = ti.repl
	if cfg.tr != nil {
		ti.repo = tracedRepo{ti.repl, cfg.tr}
	}
	ti.front = trader.NewSharded("front", ti.repo, 0)
	for i := 0; i < tradeShards; i++ {
		name := fmt.Sprintf("shard%d", i)
		t := trader.New(name, ti.repo)
		ti.shards[name] = t
		var shard trader.Shard = t
		if cfg.tr != nil {
			shard = tracedShard{t, cfg.tr}
		}
		if err := ti.front.AddShard(name, shard); err != nil {
			return nil, err
		}
	}

	// Subtyping is structural, so every type carries a marker operation
	// of its own on top of its parent's; without one, all the types would
	// substitute for each other and every import would fan out everywhere.
	base := types.OpInterface("SvcBase",
		types.Op("Query", types.Params(types.P("q", values.TString())),
			types.Term("OK", types.P("answer", values.TString()))))
	for i := 0; i < tradeTypes; i++ {
		var t svcType
		switch {
		case i < tradeRoots:
			t.name = fmt.Sprintf("SvcR%d", i)
			t.iface = types.Extend(t.name, base, markerOp("Mark"+t.name))
		case i < tradeRoots+tradeMids:
			parent := (i - tradeRoots) / 3
			t.name = fmt.Sprintf("SvcM%d", i-tradeRoots)
			t.iface = types.Extend(t.name, ti.types[parent].iface, markerOp("Mark"+t.name))
			t.anc = []int{parent}
		default:
			parent := tradeRoots + (i-tradeRoots-tradeMids)/2
			t.name = fmt.Sprintf("SvcL%d", i-tradeRoots-tradeMids)
			t.iface = types.Extend(t.name, ti.types[parent].iface, markerOp("Mark"+t.name))
			t.anc = append([]int{parent}, ti.types[parent].anc...)
		}
		if err := ti.repo.RegisterInterface(t.iface); err != nil {
			return nil, err
		}
		if len(t.anc) > 0 {
			if err := ti.repo.DeclareSubtype(t.name, ti.types[t.anc[0]].name); err != nil {
				return nil, err
			}
		}
		ti.types = append(ti.types, t)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < tradeCallers; i++ {
		crng := rand.New(rand.NewSource(rng.Int63()))
		ti.callers = append(ti.callers, &tradeCaller{
			idx: i, rng: crng, zipf: rand.NewZipf(crng, 1.1, 1, tradeTypes-1),
		})
	}
	// Every type gets the same number of offers, so the work an import
	// does depends on the type drawn and the properties, not on the seed's
	// luck in spreading offers over types.
	for i := 0; i < tradeOffers; i++ {
		c := ti.callers[i%tradeCallers]
		if err := ti.export(c, rng, i%tradeTypes); err != nil {
			return nil, err
		}
	}
	if !ti.checkedImport(0) {
		return nil, fmt.Errorf("first import failed its oracle")
	}
	return ti, nil
}

// newProps draws the four properties of an offer.
func (ti *tradeInstance) newProps(rng *rand.Rand, o *shadowOffer) {
	o.cost = rng.Int63n(1_000_000)<<costShift | ti.unique.Add(1)
	o.load = rng.Int63n(100)
	o.region = tradeRegions[rng.Intn(len(tradeRegions))]
	o.secure = rng.Intn(2) == 0
	o.props = values.Record(
		values.F("cost", values.Int(o.cost)),
		values.F("load", values.Int(o.load)),
		values.F("region", values.Str(o.region)),
		values.F("secure", values.Bool(o.secure)),
	)
}

func (ti *tradeInstance) typeName(i int) string {
	ti.typesMu.RLock()
	defer ti.typesMu.RUnlock()
	return ti.types[i].name
}

func (ti *tradeInstance) typeCount() int {
	ti.typesMu.RLock()
	defer ti.typesMu.RUnlock()
	return len(ti.types)
}

// timed runs one call into the trader and, on a traced run, adds its
// duration to accumulator d.
func (ti *tradeInstance) timed(d int, call func() error) error {
	if ti.tr == nil || !ti.tr.on.Load() {
		return call()
	}
	t0 := ti.tr.now()
	err := call()
	ti.tr.dur[d].add(ti.tr.now() - t0)
	return err
}

// export advertises a fresh offer of type typ, owned by c.
func (ti *tradeInstance) export(c *tradeCaller, rng *rand.Rand, typ int) error {
	o := &shadowOffer{typ: typ}
	ti.newProps(rng, o)
	name := ti.typeName(typ)
	ref := naming.InterfaceRef{
		ID:       naming.InterfaceID{Nonce: ti.nonce.Add(1)},
		TypeName: name,
		Endpoint: "sim://offered",
	}
	err := ti.timed(dExport, func() (err error) {
		o.id, err = ti.front.Export(name, ref, o.props)
		return err
	})
	if err != nil {
		return err
	}
	o.slot = len(c.owned)
	c.owned = append(c.owned, o)
	ti.shadowMu.Lock()
	ti.shadow[o.id] = o
	ti.shadowMu.Unlock()
	return nil
}

// withdraw removes one of c's own offers.
func (ti *tradeInstance) withdraw(c *tradeCaller) error {
	o := c.owned[c.rng.Intn(len(c.owned))]
	last := c.owned[len(c.owned)-1]
	c.owned[o.slot], last.slot = last, o.slot
	c.owned = c.owned[:len(c.owned)-1]
	ti.shadowMu.Lock()
	delete(ti.shadow, o.id)
	ti.shadowMu.Unlock()
	return ti.timed(dWithdraw, func() error { return ti.front.Withdraw(o.id) })
}

// modify redraws the properties of one of c's own offers. The sharded
// front-end routes no Modify, so the call goes to the shard that minted
// the offer id ("<shard>/<seq>"), as a trader's owner would make it.
func (ti *tradeInstance) modify(c *tradeCaller) error {
	o := c.owned[c.rng.Intn(len(c.owned))]
	shard := ti.shards[o.id[:strings.IndexByte(o.id, '/')]]
	// Only c touches its own offers, and the brute-force filter holds the
	// gate exclusively, so the shadow copy needs no lock here.
	ti.newProps(c.rng, o)
	return ti.timed(dModify, func() error { return shard.Modify(o.id, o.props) })
}

// freshType registers a new leaf type under a random mid-level type: the
// type generation moves, so the traders' subtype-closure memos and the
// repository's replicas are stale at the next read.
func (ti *tradeInstance) freshType(c *tradeCaller) error {
	parent := tradeRoots + c.rng.Intn(tradeMids)
	ti.typesMu.Lock()
	defer ti.typesMu.Unlock()
	name := fmt.Sprintf("SvcG%d", ti.fresh.Add(1))
	t := svcType{
		name:  name,
		iface: types.Extend(name, ti.types[parent].iface, markerOp("Mark"+name)),
		anc:   append([]int{parent}, ti.types[parent].anc...),
	}
	if err := ti.repo.RegisterInterface(t.iface); err != nil {
		return err
	}
	if err := ti.repo.DeclareSubtype(name, ti.types[parent].name); err != nil {
		return err
	}
	ti.types = append(ti.types, t)
	return nil
}

// bruteForce re-derives an import from the shadow: every offer whose type
// is the requested one or a descendant of it and whose properties satisfy
// the predicate, cheapest first, at most maxMatches; with keep set it also
// returns the properties of every offer of a matching type, for the
// constraint replay. The caller holds the gate exclusively.
func (ti *tradeInstance) bruteForce(typ, tmpl int, d draw, keep bool) ([]string, []values.Value) {
	ok := constraintTemplates[tmpl].ok
	var hits []*shadowOffer
	var considered []values.Value
	for _, o := range ti.shadow {
		match := o.typ == typ
		for _, a := range ti.types[o.typ].anc {
			match = match || a == typ
		}
		if !match {
			continue
		}
		if keep {
			considered = append(considered, o.props)
		}
		if ok(o, d) {
			hits = append(hits, o)
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].cost < hits[j].cost })
	if len(hits) > maxMatches {
		hits = hits[:maxMatches]
	}
	ids := make([]string, len(hits))
	for i, o := range hits {
		ids[i] = o.id
	}
	return ids, considered
}

// request builds the import the draw describes.
func (ti *tradeInstance) request(typ int, d draw, tmpl int) trader.ImportRequest {
	return trader.ImportRequest{
		ServiceType: ti.typeName(typ),
		Constraint:  constraintTemplates[tmpl].src(d),
		Preference:  trader.Preference{Kind: trader.PrefMin, Expr: "cost"},
		MaxMatches:  maxMatches,
	}
}

// importOnce makes one import through the front-end.
func (ti *tradeInstance) importOnce(req trader.ImportRequest, o *opTrace) (trader.ImportResult, error) {
	var t0 int64
	if o != nil {
		t0 = ti.tr.now()
	}
	res, err := ti.front.ImportEx(req)
	if o != nil {
		o.add("trader.import", t0, ti.tr.now())
	}
	if err == nil && res.Degraded {
		err = errors.New("degraded result")
	}
	return res, err
}

// agrees compares an import's result with the brute-force filter. The
// caller holds the gate exclusively since before the import was made.
func (ti *tradeInstance) agrees(req trader.ImportRequest, typ int, d draw, tmpl int, res trader.ImportResult, o *opTrace) bool {
	want, considered := ti.bruteForce(typ, tmpl, d, o != nil)
	if o != nil {
		ti.replayMu.Lock()
		if len(ti.replays) < 128 {
			ti.replays = append(ti.replays, importReplay{req.Constraint, considered})
			ti.keys = append(ti.keys, req.ServiceType)
		}
		ti.replayMu.Unlock()
	}
	if len(want) != len(res.Offers) {
		return false
	}
	for i, id := range want {
		if res.Offers[i].ID != id {
			return false
		}
	}
	return true
}

// checkedImport makes one import and checks it, outside any measured
// phase; the caller holds the gate exclusively or runs alone.
func (ti *tradeInstance) checkedImport(typ int) bool {
	req := ti.request(typ, draw{}, 0)
	res, err := ti.importOnce(req, nil)
	return err == nil && ti.agrees(req, typ, draw{}, 0, res, nil)
}

func (ti *tradeInstance) run(p *phase) {
	if p.traced {
		ti.stats0 = ti.front.ShardStats()
		ti.resync0 = ti.repl.Stats().Resyncs
		ti.gen0 = ti.repl.Gen()
	}
	var wg sync.WaitGroup
	for i, c := range ti.callers {
		wg.Add(1)
		go func(c *tradeCaller, s *sampler) {
			defer wg.Done()
			ti.loop(c, p, s)
		}(c, p.samplers[i])
	}
	wg.Wait()
}

const (
	opImport = iota
	opExport
	opWithdraw
	opModify
)

// pick draws the next operation of the workload's mix.
func (ti *tradeInstance) pick(c *tradeCaller) int {
	x := c.rng.Float64()
	if !ti.churn {
		if x < 0.98 {
			return opImport
		}
		return opModify
	}
	switch {
	case x < 0.40:
		return opImport
	case x < 0.65:
		return opExport
	case x < 0.90:
		if len(c.owned) == 0 {
			return opExport
		}
		return opWithdraw
	}
	return opModify
}

// rankType maps a Zipf rank to a service type. The order is fixed, not
// seeded, so every seed draws the same distribution of work; it starts at
// a leaf and steps through the levels, which puts leaves (one bucket of
// 200 offers) and mid-level types (three buckets) at the popular end and
// the five roots (ten buckets over several shards) in the tail.
func rankType(rank uint64) int { return (tradeRoots + tradeMids + 7*int(rank)) % tradeTypes }

func (ti *tradeInstance) loop(c *tradeCaller, p *phase, s *sampler) {
	tr := ti.tr
	traced := p.traced && tr != nil
	for {
		if p.over(p.now()) {
			return
		}
		c.n++
		if ti.churn && ti.ops.Add(1)%typeEvery == 0 {
			// Not an operation of the mix: its cost shows in the latency
			// of the imports that find their caches stale.
			ti.gate.Lock()
			err := ti.freshType(c)
			ti.gate.Unlock()
			if err != nil {
				s.attempted++
				s.fail("register a fresh type: %v", err)
			}
		}
		kind := ti.pick(c)
		var typ, tmpl int
		var d draw
		check := false
		if kind == opImport {
			c.imports++
			check = c.imports%checkEvery == 0
			typ = rankType(c.zipf.Uint64())
			tmpl = c.rng.Intn(len(constraintTemplates))
			d = draw{
				k:      10 + c.rng.Int63n(80),
				k2:     10 + c.rng.Int63n(80),
				region: tradeRegions[c.rng.Intn(len(tradeRegions))],
				cost:   c.rng.Int63n(1_000_000) << costShift,
			}
		}
		sampled := traced && kind == opImport && c.n%traceEvery == 0
		exclusive := check || sampled
		shared := !exclusive && (kind != opImport || traced)
		switch {
		case exclusive:
			ti.gate.Lock()
		case shared:
			ti.gate.RLock()
		}
		var o *opTrace
		if sampled {
			o = &opTrace{id: fmt.Sprintf("c%d#%d", c.idx, c.n)}
			tr.sampled.Store(o)
		}
		var req trader.ImportRequest
		var res trader.ImportResult
		if kind == opImport {
			req = ti.request(typ, d, tmpl)
		}
		s.attempted++
		t0 := p.now()
		var err error
		switch kind {
		case opImport:
			res, err = ti.importOnce(req, o)
		case opExport:
			err = ti.export(c, c.rng, c.rng.Intn(ti.typeCount()))
		case opWithdraw:
			err = ti.withdraw(c)
		case opModify:
			err = ti.modify(c)
		}
		t1 := p.now()
		// The oracle runs after the operation's time is taken, still under
		// the gate, so the latency of a checked import is the trader's alone.
		ok := true
		if exclusive && err == nil {
			ok = ti.agrees(req, typ, d, tmpl, res, o)
		}
		if sampled {
			tr.sampled.Store(nil)
			tr.finish(o)
		}
		switch {
		case exclusive:
			ti.gate.Unlock()
		case shared:
			ti.gate.RUnlock()
		}
		if err != nil || !ok {
			s.fail("caller %d operation %d (kind %d, type %d, constraint %d): error %v, oracle agrees %v", c.idx, c.n, kind, typ, tmpl, err, ok)
			continue
		}
		s.done(t1, t1-t0)
	}
}

// verify makes one checked import of every root type: the whole offer set
// is compared with the shadow once more after the load has stopped.
func (ti *tradeInstance) verify() (checked, failed int64) {
	ti.gate.Lock()
	defer ti.gate.Unlock()
	for typ := 0; typ < tradeRoots; typ++ {
		checked++
		if !ti.checkedImport(typ) {
			failed++
		}
	}
	ti.shadowMu.Lock()
	n := len(ti.shadow)
	ti.shadowMu.Unlock()
	held := 0
	for _, t := range ti.shards {
		held += t.Len()
	}
	checked++
	if held != n {
		failed++
	}
	return
}

func (ti *tradeInstance) layers(p *phase, m metrics) {
	tr := ti.tr
	_, _, _, completed := p.totals()
	ops := float64(completed)

	st := ti.front.ShardStats()
	if imports := float64(st.Imports - ti.stats0.Imports); imports > 0 {
		m["trader.shards_per_import"] = float64(st.ShardsQueried-ti.stats0.ShardsQueried) / imports
		m["trader.matched_per_import"] = float64(st.Matched-ti.stats0.Matched) / imports
	}
	m["trader.shard_import_us"] = tr.dur[dShardImport].meanUs()
	m["trader.export_us"] = tr.dur[dExport].meanUs()
	m["trader.withdraw_us"] = tr.dur[dWithdraw].meanUs()
	m["trader.modify_us"] = tr.dur[dModify].meanUs()
	m["typerepo.resyncs_per_kop"] = float64(ti.repl.Stats().Resyncs-ti.resync0) / ops * 1e3
	m["typerepo.gen_bumps"] = float64(ti.repl.Gen() - ti.gen0)

	// The recorded imports ran alone, so their shard and repository spans
	// nest under them; what the front-end spent itself is the import span
	// minus the union of what its (possibly parallel) shard legs and its
	// own repository reads cover.
	var imports [][]span
	tr.doneMu.Lock()
	for _, o := range tr.done {
		imports = append(imports, o.spans)
	}
	tr.doneMu.Unlock()
	selfUs, perOp := selfMeans(imports)
	m["trader.frontend_self_us_per_import"] = selfUs["trader.import"]
	m["typerepo.calls_per_import"] = perOp["typerepo.read"]
	m["typerepo.read_us_per_import"] = selfUs["typerepo.read"]
	m["loadgen.traced_imports"] = float64(len(imports))

	m["constraint.parse_eval_us_per_import"] = replayConstraint(ti.replays)
	members := make([]string, 0, len(ti.shards))
	for name := range ti.shards {
		members = append(members, name)
	}
	sort.Strings(members)
	m["hashring.lookup_ns"] = replayHashring(members, ti.keys)
}
