// E13: the sharded infrastructure. Two measurements of the sharded
// trader + sharded relocator + client relocation cache stack, plus the
// binding swarm that E15 runs at full scale:
//
//   - grid: import throughput and latency against shard count, with each
//     shard an ordinary ODP object reached over channels. Every shard
//     node sits behind a capacity gate (a single-server queue with a
//     fixed service time), so on any host — including a single-core CI
//     box — throughput is bounded by shard capacity, not by how many
//     local goroutines the scheduler happens to run: adding shards adds
//     servers, and the measured scaling is the sharding's, not the
//     machine's.
//   - blackout: per-offer availability while the ring changes. Probes
//     import every offer continuously while a shard is added and
//     another removed; the migration protocol (install on the new
//     owner before withdrawing from the old, two-phase old-before-new
//     reads) promises zero misses, and the probe log turns that promise
//     into a measured per-offer blackout figure. The same probe, given a
//     replica-group shard and a chaos script, is E15's crash storm.
//   - swarm (E13Swarm, measured in E15): hundreds of thousands of client
//     bindings (one million in E15) fan out from a few dozen client
//     hosts to a few dozen server nodes on the simulated network, every
//     binding resolved through the sharded trader, located through a
//     per-host relocation cache, attached over shared transport
//     sessions, and exercised with one invocation. The claim under test
//     is ODP's scale story end to end: no lookup may be lost,
//     connections stay O(hosts×nodes) rather than O(bindings), and the
//     cache absorbs nearly all location traffic.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/relocator"
	"repro/internal/trader"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

func e13TypeName(i int) string { return fmt.Sprintf("SwarmSvc%02d", i) }

// e13Repo registers n disjoint operational service types. Subtyping here
// is structural, so every type carries a marker operation of its own —
// without it the n "different" services would all substitute for each
// other and every import would fan out to every shard.
func e13Repo(n int) typerepo.Repository {
	repo := typerepo.New()
	for i := 0; i < n; i++ {
		must(repo.RegisterInterface(types.OpInterface(e13TypeName(i),
			types.Op("Echo", types.Params(types.P("x", values.TString())),
				types.Term("OK", types.P("x", values.TString()))),
			types.Op(fmt.Sprintf("Mark%02d", i), types.Params(), types.Term("OK")),
		)))
	}
	return repo
}

func e13Ref(nonce uint64, typeName string, ep naming.Endpoint) naming.InterfaceRef {
	return naming.InterfaceRef{
		ID:       naming.InterfaceID{Nonce: nonce},
		TypeName: typeName,
		Endpoint: ep,
	}
}

// e13Export advertises one offer per service type 0..n-1 through fe; the
// offers point nowhere — these experiments import, they never bind.
func e13Export(fe *trader.ShardedTrader, n int, nonceBase uint64) error {
	for i := 0; i < n; i++ {
		name := e13TypeName(i)
		if _, err := fe.Export(name, e13Ref(nonceBase+uint64(i), name, "sim://nowhere"), values.Null()); err != nil {
			return err
		}
	}
	return nil
}

// e13Import imports service type i through fe and fails if its offer is
// not found.
func e13Import(fe *trader.ShardedTrader, i int) error {
	got, err := fe.Import(trader.ImportRequest{ServiceType: e13TypeName(i), MaxMatches: 1})
	if err == nil && len(got) == 0 {
		err = fmt.Errorf("import %s: no offer", e13TypeName(i))
	}
	return err
}

// e13Prober returns a gapProbe prober that imports service types first,
// first+1, … (mod targets) through fe; a target is found when exactly
// its one live offer comes back.
func e13Prober(fe *trader.ShardedTrader, first, targets int) func(k int) (int, bool, error) {
	return func(k int) (int, bool, error) {
		i := (first + k) % targets
		got, err := fe.Import(trader.ImportRequest{ServiceType: e13TypeName(i), MaxMatches: 1})
		return i, len(got) == 1, err
	}
}

// E13GridConfig parameterises the shard-count sweep.
type E13GridConfig struct {
	ShardCounts   []int
	Workers       int           // concurrent importers driving the front-end
	Tau           time.Duration // per-shard service time (capacity 1/tau)
	Types         int           // service types spread over the ring
	CallsBase     int           // per-cell invocation budget: base + perShard*k
	CallsPerShard int
}

// E13GridRow is one shard-count measurement.
type E13GridRow struct {
	Shards     int
	Workers    int
	Calls      int
	Throughput float64 // imports completed per second across the fleet
	P50, P99   time.Duration
}

// E13Grid measures import throughput through the sharded trader for each
// shard count, shards reached over channels and capacity-gated at 1/tau.
func E13Grid(cfg E13GridConfig) ([]E13GridRow, error) {
	var rows []E13GridRow
	for _, k := range cfg.ShardCounts {
		row, err := e13GridRow(k, cfg)
		if err != nil {
			return rows, fmt.Errorf("e13 grid shards=%d: %w", k, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func e13GridRow(shards int, cfg E13GridConfig) (E13GridRow, error) {
	f := newFleet(int64(13000 + shards))
	defer f.close()
	f.net.SetAcceptBacklog(4 * shards)
	f.types = e13Repo(cfg.Types)
	fe := trader.NewSharded("fe", f.types, 0)
	for i := 0; i < shards; i++ {
		if err := f.addShard(fe, i, &gate{tau: cfg.Tau}); err != nil {
			return E13GridRow{}, err
		}
	}
	if err := e13Export(fe, cfg.Types, 1000); err != nil {
		return E13GridRow{}, err
	}

	calls := cfg.CallsBase + cfg.CallsPerShard*shards
	elapsed, lats, err := closedLoop(cfg.Workers, calls, func(_, n int) error {
		return e13Import(fe, n%cfg.Types)
	})
	if err != nil {
		return E13GridRow{}, err
	}
	row := E13GridRow{
		Shards:     shards,
		Workers:    cfg.Workers,
		Calls:      calls,
		Throughput: float64(calls) / elapsed.Seconds(),
	}
	row.P50, row.P99 = quantiles(lats)
	return row, nil
}

// E13SwarmConfig parameterises the binding swarm.
type E13SwarmConfig struct {
	Bindings int // total client bindings to establish
	Hosts    int // client hosts (one shared session manager + cache each)
	Nodes    int // server nodes hosting the service interfaces
	Services int // distinct service types (spread over the nodes)
	Shards   int // trader and relocator shard count

	// TypeReplicas, when positive, fronts the type repository with that
	// many gen-fenced read replicas (typerepo.NewReplicated) — the E15
	// configuration, where the million-binding swarm's subtype and lookup
	// traffic is served replica-local instead of from one shared store.
	TypeReplicas int
}

// E13SwarmReport is the swarm measurement.
type E13SwarmReport struct {
	Config         E13SwarmConfig
	Bindings       int           // bindings actually established
	LostLookups    int           // imports or location lookups that found nothing
	Conns          uint64        // connections accepted across all server nodes
	Dials          uint64        // dials performed across all client hosts
	CacheHitRate   float64       // relocation-cache hits / lookups
	HeapPerBinding uint64        // heap growth per binding, bytes (rough: both ends)
	P50, P99       time.Duration // first-invocation latency per binding
	Elapsed        time.Duration
	PerSec         float64 // bindings established (incl. one invoke) per second
}

// E13Swarm establishes cfg.Bindings client bindings: each one imports its
// service from the sharded trader, resolves the location through its
// host's relocation cache, binds over the host's shared session manager,
// and performs one invocation. All bindings stay open until the end, so
// the connection and heap numbers describe the steady swarm, not churn.
func E13Swarm(cfg E13SwarmConfig) (E13SwarmReport, error) {
	if cfg.Hosts < 1 || cfg.Nodes < 1 || cfg.Shards < 1 {
		return E13SwarmReport{}, fmt.Errorf("e13 swarm: bad config %+v", cfg)
	}
	if cfg.Services < 1 {
		cfg.Services = 64
	}
	f := newFleet(13999)
	defer f.close()
	f.net.SetAcceptBacklog(4 * cfg.Hosts * cfg.Nodes)
	repo := e13Repo(cfg.Services)
	if cfg.TypeReplicas > 0 {
		repo = typerepo.NewReplicated(repo, cfg.TypeReplicas)
	}

	// Server nodes: each hosts the echo servants for its share of the
	// service types, so a server carries many registrations — the one
	// bring-up fleet.start (one interface per server) does not cover.
	servers := make([]*channel.Server, cfg.Nodes)
	for i := range servers {
		l, err := f.net.Listen(naming.Endpoint(fmt.Sprintf("sim://node%d", i)))
		if err != nil {
			return E13SwarmReport{}, err
		}
		srv := channel.NewServer(l, channel.ServerConfig{})
		f.own(func() { srv.Close() })
		servers[i] = srv
	}

	// The infrastructure functions: a sharded trader and a sharded
	// relocator (the over-channels shape is measured by the grid phase;
	// here they are in-process so the swarm numbers isolate the binding
	// fan-out itself).
	fe := trader.NewSharded("swarm", repo, 0)
	for i := 0; i < cfg.Shards; i++ {
		if err := fe.AddShard(fmt.Sprintf("t%d", i), trader.New(fmt.Sprintf("t%d", i), repo)); err != nil {
			return E13SwarmReport{}, err
		}
	}
	wp := relocator.NewSharded()
	for i := 0; i < cfg.Shards; i++ {
		if err := wp.AddShard(fmt.Sprintf("r%d", i), relocator.New()); err != nil {
			return E13SwarmReport{}, err
		}
	}

	echo := channel.HandlerFunc(func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
		return "OK", args, nil
	})
	for i := 0; i < cfg.Services; i++ {
		node := i % cfg.Nodes
		ref := e13Ref(uint64(2000+i), e13TypeName(i), naming.Endpoint(fmt.Sprintf("sim://node%d", node)))
		if err := servers[node].Register(ref.ID, nil, echo); err != nil {
			return E13SwarmReport{}, err
		}
		if _, err := fe.Export(e13TypeName(i), ref, values.Record(values.F("node", values.Int(int64(node))))); err != nil {
			return E13SwarmReport{}, err
		}
		if err := wp.Register(ref); err != nil {
			return E13SwarmReport{}, err
		}
	}
	for _, s := range servers {
		s.Start()
	}

	// Client hosts: one shared session manager and one relocation cache
	// each — the cache capacity comfortably covers the service
	// population, so after warm-up location traffic stays client-side.
	mgrs := make([]*channel.SessionManager, cfg.Hosts)
	caches := make([]*relocator.Cache, cfg.Hosts)
	for h := range mgrs {
		mgrs[h] = f.sessions(f.net.From(fmt.Sprintf("client%d", h)))
		caches[h] = relocator.NewCache(wp, 2*cfg.Services)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Two workers per host keep a couple of invocations in flight per
	// connection — far below the simulator's frame window, so zero lost
	// lookups is an assertion about the protocol, not about luck. The
	// bindings are kept by the worker that made them, not by the fleet:
	// a million release closures would show up in the heap figure.
	const workersPerHost = 2
	nWorkers := cfg.Hosts * workersPerHost
	bindings := make([][]*channel.Binding, nWorkers)
	defer func() {
		for _, bs := range bindings {
			for _, b := range bs {
				b.Close()
			}
		}
	}()
	var lost atomic.Int64
	elapsed, lats, err := closedLoop(nWorkers, cfg.Bindings, func(w, n int) error {
		host := w / workersPerHost
		offers, err := fe.Import(trader.ImportRequest{ServiceType: e13TypeName(n % cfg.Services), MaxMatches: 1})
		if err != nil || len(offers) == 0 {
			lost.Add(1)
			return nil
		}
		ref, err := caches[host].Lookup(offers[0].Ref.ID)
		if err != nil {
			lost.Add(1)
			return nil
		}
		b, err := channel.Bind(ref, channel.BindConfig{
			Sessions: mgrs[host],
			Locator:  caches[host],
		})
		if err != nil {
			return err
		}
		bindings[w] = append(bindings[w], b)
		_, _, err = b.Invoke(context.Background(), "Echo", []values.Value{values.Str("x")})
		return err
	})
	if err != nil {
		return E13SwarmReport{}, err
	}

	established := 0
	for _, bs := range bindings {
		established += len(bs)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	var heapPerB uint64
	if after.HeapAlloc > before.HeapAlloc && established > 0 {
		heapPerB = (after.HeapAlloc - before.HeapAlloc) / uint64(established)
	}

	rep := E13SwarmReport{
		Config:         cfg,
		Bindings:       established,
		LostLookups:    int(lost.Load()),
		HeapPerBinding: heapPerB,
		Elapsed:        elapsed,
		PerSec:         float64(established) / elapsed.Seconds(),
	}
	rep.P50, rep.P99 = quantiles(lats)
	for _, s := range servers {
		rep.Conns += s.Stats().Sessions
	}
	var hits, misses uint64
	for h := range mgrs {
		rep.Dials += mgrs[h].Stats().Dials
		cs := caches[h].Stats()
		hits += cs.Hits
		misses += cs.Misses
	}
	if hits+misses > 0 {
		rep.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return rep, nil
}

// E13BlackoutReport is the rebalance-availability measurement.
type E13BlackoutReport struct {
	Offers      int
	Probes      uint64        // successful per-offer imports during the window
	Misses      uint64        // probes that found nothing (the blackout count)
	MaxBlackout time.Duration // worst gap between successive finds of one offer
	Migrated    uint64        // offers moved live by the ring changes
	Rebalances  uint64
}

// rebalanceProbe probes every offer continuously — over channels, against
// remote shard traders — while the ring gains one shard and loses
// another, with the chaos script (if any) playing from the moment the
// ring starts to move. A miss is an import of a live offer that returns
// nothing; the migration protocol is supposed to make that impossible,
// and the per-offer gap bounds how long any single offer went unobserved.
// With replicaShard, shard s1 is a coordination.ReplicaGroup of two
// trader replicas on hosts rep0 and rep1, so a script that crashes one
// of them tests that the group's sequenced fan-out and read failover mask
// a member crash in the middle of the rebalance.
func rebalanceProbe(offers int, replicaShard bool, script netsim.Script) (E15CrashReport, error) {
	if offers < 1 {
		offers = 64
	}
	f := newFleet(13777)
	defer f.close()
	f.net.SetAcceptBacklog(16)
	f.types = e13Repo(offers)
	fe := trader.NewSharded("fe", f.types, 0)

	var group *coordination.ReplicaGroup
	for i := 0; i < 3; i++ {
		var err error
		if i == 1 && replicaShard {
			if group, err = f.groupShard("rep0", "rep1"); err == nil {
				err = fe.AddShard("s1", trader.NewRemote(group))
			}
		} else {
			err = f.addShard(fe, i, nil)
		}
		if err != nil {
			return E15CrashReport{}, err
		}
	}
	if err := e13Export(fe, offers, 3000); err != nil {
		return E15CrashReport{}, err
	}

	probe := newGapProbe(offers)
	for q := 0; q < 4; q++ {
		probe.start(e13Prober(fe, q, offers))
	}
	if err := probe.warm(warmDeadline); err != nil {
		probe.halt()
		return E15CrashReport{}, err
	}
	// Only gaps overlapping the rebalance window count.
	probe.reset()

	chaos := netsim.NewChaos(f.net, netsim.ChaosConfig{}, script)
	chaos.Start()
	err := f.addShard(fe, 3, nil)
	if err == nil {
		err = fe.RemoveShard("s0")
	}
	if err == nil {
		// Keep probing past the flips and the script so trailing gaps
		// close and a crashed member is actually exercised (and failed
		// over).
		time.Sleep(25 * time.Millisecond)
	}
	chaos.Stop()
	if perr := probe.halt(); err == nil {
		err = perr
	}
	if err != nil {
		return E15CrashReport{}, err
	}

	rep := E15CrashReport{
		E13BlackoutReport: E13BlackoutReport{
			Offers:      offers,
			Probes:      probe.hits.Load(),
			Misses:      probe.misses.Load(),
			MaxBlackout: probe.worst(),
		},
		CrashEvents: len(chaos.Events()),
	}
	if group != nil {
		rep.GroupSize = group.Size()
	}
	st := fe.ShardStats()
	rep.Migrated, rep.Rebalances = st.Migrated, st.Rebalances
	return rep, nil
}

// E13Blackout is the rebalance probe over three plain shards with no
// faults injected: the pure migration-protocol measurement.
func E13Blackout(offers int) (E13BlackoutReport, error) {
	rep, err := rebalanceProbe(offers, false, nil)
	return rep.E13BlackoutReport, err
}

// E13Report bundles the two phases for odpbench.
type E13Report struct {
	Grid     []E13GridRow
	Blackout E13BlackoutReport
}

// E13 runs the full experiment (or the CI smoke slice: a 1-vs-8 grid
// instead of the 1/2/4/8/16 sweep).
func E13(smoke bool) (E13Report, error) {
	grid := E13GridConfig{ShardCounts: []int{1, 2, 4, 8, 16}, Workers: 48, Tau: 800 * time.Microsecond,
		Types: 64, CallsBase: 750, CallsPerShard: 250}
	if smoke {
		grid.ShardCounts = []int{1, 8}
		grid.CallsBase, grid.CallsPerShard = 600, 250
	}
	var rep E13Report
	var err error
	if rep.Grid, err = E13Grid(grid); err != nil {
		return rep, err
	}
	if rep.Blackout, err = E13Blackout(64); err != nil {
		return rep, err
	}
	return rep, nil
}

// Records flattens the report into the unified benchmark-record shape.
func (r E13Report) Records() []Record {
	var out []Record
	for _, g := range r.Grid {
		out = append(out, Record{
			Experiment: "e13",
			Scenario:   "grid",
			Params: map[string]float64{
				"shards":  float64(g.Shards),
				"workers": float64(g.Workers),
			},
			Metrics: map[string]float64{
				"calls":      float64(g.Calls),
				"throughput": g.Throughput,
				"p50_us":     float64(g.P50.Microseconds()),
				"p99_us":     float64(g.P99.Microseconds()),
			},
		})
	}
	b := r.Blackout
	out = append(out, Record{
		Experiment: "e13",
		Scenario:   "rebalance-blackout",
		Params:     map[string]float64{"offers": float64(b.Offers)},
		Metrics: map[string]float64{
			"probes":          float64(b.Probes),
			"misses":          float64(b.Misses),
			"max_blackout_us": float64(b.MaxBlackout.Microseconds()),
			"migrated":        float64(b.Migrated),
			"rebalances":      float64(b.Rebalances),
		},
	})
	return out
}
