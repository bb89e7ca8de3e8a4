// E15: the de-singletoned control plane under swarm load. PR 9 split the
// two remaining process-wide singletons — the type repository and the
// coordination event bus — into a replicated read front-end
// (typerepo.NewReplicated) and a topic-sharded bus
// (coordination.NewShardedBus). Four measurements test that the split
// actually buys what it claims:
//
//   - typerepo: import throughput through a 16-shard trader whose type
//     repository is a capacity-gated authority (a 1/tau single-server
//     queue, the same construction the E13 grid applies to shard
//     nodes), singleton vs fronted by 16 gen-fenced read replicas. The
//     gate makes the result a property of where reads are served, not
//     of the host's core count: singleton throughput is bounded by
//     1/tau, replica-served reads are not.
//   - bus: publish throughput with every bus shard behind the same
//     kind of capacity gate (one broker node per shard, service time
//     tau), for a singleton bus and 1/4/16-shard front-ends.
//   - swarm: the E13 binding swarm raised to one million bindings with
//     the replicated type repository serving the import path — zero
//     lost lookups at 1M is the scale gate.
//   - crash storm: the E13 rebalance-blackout probe (rebalanceProbe,
//     the same function) with one trader shard served by a
//     coordination.ReplicaGroup of two trader replicas, and a chaos
//     script that crashes one replica host while the ring gains a shard
//     and loses another. Zero probe misses means the migration protocol
//     and the group's failover combine: neither the rebalance nor the
//     member crash is observable.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/coordination"
	"repro/internal/netsim"
	"repro/internal/trader"
	"repro/internal/typerepo"
	"repro/internal/values"
)

// The shape of the two capacity-gated comparisons. Only the sample
// counts vary (full run vs CI smoke), so only they are parameters.
const (
	e15Tau        = 100 * time.Microsecond // service time of a gated authority or broker
	e15Services   = 64                     // distinct service types / bus topics
	e15Shards     = 16                     // trader shards driving repository reads
	e15Replicas   = 16                     // read replicas in the replicated mode
	e15Importers  = 8                      // concurrent importers
	e15Publishers = 32                     // concurrent publishers
)

// e15BusShardCounts are the sharded front-end sizes the bus sweep runs
// after the singleton.
var e15BusShardCounts = []int{1, 4, 16}

// E15TypeRepoRow is one mode's measurement.
type E15TypeRepoRow struct {
	Mode           string // "singleton" or "replicated"
	Replicas       int    // 0 for the singleton
	Calls          int
	Throughput     float64 // imports per second
	AuthorityReads uint64  // gated content reads that reached the authority (timed phase)
	ReplicaReads   uint64  // reads served from replica copies (replicated mode)
}

// E15TypeRepo measures trader-import throughput over calls timed imports
// against the gated authority, first with every shard reading the
// singleton directly, then with reads served by gen-fenced local
// replicas.
func E15TypeRepo(calls int) ([]E15TypeRepoRow, error) {
	var rows []E15TypeRepoRow
	for _, replicated := range []bool{false, true} {
		row, err := e15TypeRepoRow(calls, replicated)
		if err != nil {
			return rows, fmt.Errorf("e15 typerepo (replicated=%v): %w", replicated, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func e15TypeRepoRow(calls int, replicated bool) (E15TypeRepoRow, error) {
	authority := &gate{tau: e15Tau}
	var repo typerepo.Repository = &gatedRepo{Repository: e13Repo(e15Services), g: authority}
	var rep *typerepo.Replicated
	if replicated {
		rep = typerepo.NewReplicated(repo, e15Replicas)
		repo = rep
	}
	fe := trader.NewSharded("e15", repo, 0)
	for i := 0; i < e15Shards; i++ {
		if err := fe.AddShard(fmt.Sprintf("t%d", i), trader.New(fmt.Sprintf("t%d", i), repo)); err != nil {
			return E15TypeRepoRow{}, err
		}
	}
	if err := e13Export(fe, e15Services, 4000); err != nil {
		return E15TypeRepoRow{}, err
	}
	// Warm-up: one import per service type builds every shard's subtype
	// closure (no writes run during the timed phase, so the closures stay
	// valid), and in replicated mode syncs every replica copy.
	for i := 0; i < max(e15Services, e15Replicas); i++ {
		if err := e13Import(fe, i%e15Services); err != nil {
			return E15TypeRepoRow{}, fmt.Errorf("warm-up: %w", err)
		}
	}

	readsBefore := authority.passes.Load()
	elapsed, _, err := closedLoop(e15Importers, calls, func(_, n int) error {
		return e13Import(fe, n%e15Services)
	})
	if err != nil {
		return E15TypeRepoRow{}, err
	}
	row := E15TypeRepoRow{
		Mode:           "singleton",
		Calls:          calls,
		Throughput:     float64(calls) / elapsed.Seconds(),
		AuthorityReads: authority.passes.Load() - readsBefore,
	}
	if replicated {
		row.Mode = "replicated"
		row.Replicas = e15Replicas
		row.ReplicaReads = rep.Stats().Reads
	}
	return row, nil
}

// E15BusRow is one bus mode's measurement.
type E15BusRow struct {
	Mode       string // "singleton" or "sharded"
	Shards     int    // 0 for the singleton
	Events     int
	Throughput float64 // publishes per second
}

// E15Bus measures publish throughput over events timed publishes with
// every shard behind a capacity gate (one broker node per shard): the
// singleton is one gated broker, a k-shard bus is k of them, and topics
// spread over the ring keep the gates busy in proportion to the shard
// count. The singleton and the one-shard bus are one type on one code
// path (only the shard's name differs): those two rows repeat each other.
func E15Bus(events int) []E15BusRow {
	rows := []E15BusRow{e15BusRow("singleton", 0, events, coordination.NewBus())}
	for _, k := range e15BusShardCounts {
		rows = append(rows, e15BusRow("sharded", k, events, coordination.NewShardedBus(k)))
	}
	return rows
}

func e15BusRow(mode string, shards, events int, bus *coordination.Bus) E15BusRow {
	// One gate per shard: the broker node's single-server queue.
	brokers := make(map[string]*gate)
	for _, n := range bus.ShardNames() {
		brokers[n] = &gate{tau: e15Tau}
	}
	// One wildcard subscriber, so every publish also delivers.
	cancel := bus.Subscribe("", nil, func(coordination.Event) {})
	defer cancel()

	topics := make([]string, e15Services)
	for i := range topics {
		topics[i] = fmt.Sprintf("e15.topic-%02d", i)
	}
	elapsed, _, _ := closedLoop(e15Publishers, events, func(_, n int) error {
		topic := topics[n%len(topics)]
		brokers[bus.ShardFor(topic)].pass()
		bus.Publish(topic, values.Int(int64(n)))
		return nil
	})
	return E15BusRow{
		Mode:       mode,
		Shards:     shards,
		Events:     events,
		Throughput: float64(events) / elapsed.Seconds(),
	}
}

// E15CrashReport is the crash-storm rebalance measurement: the E13
// blackout figures (misses must be zero) plus what the storm did.
type E15CrashReport struct {
	E13BlackoutReport
	CrashEvents int // chaos faults actually applied (must be >= 1)
	GroupSize   int // surviving members of the replicated shard
}

// E15CrashStorm is the E13 blackout probe with two twists: one trader
// shard is a coordination.ReplicaGroup of two replicas on separate
// simulated hosts, and a chaos script crashes one of those hosts 2ms
// into the rebalance. The probes must observe zero misses: the migration
// protocol masks the rebalance and the group's sequenced fan-out + read
// failover mask the member crash.
func E15CrashStorm(offers int) (E15CrashReport, error) {
	return rebalanceProbe(offers, true, netsim.Script{
		{At: 2 * time.Millisecond, Fault: netsim.Fault{Kind: netsim.FaultCrash, A: "rep0"}},
	})
}

// E15Report bundles the four phases for odpbench.
type E15Report struct {
	TypeRepo []E15TypeRepoRow
	Bus      []E15BusRow
	Swarm    E13SwarmReport
	Crash    E15CrashReport
}

// E15 runs the de-singleton experiment. smoke trims the typerepo and bus
// sample counts for CI; the swarm stays at one million bindings in both
// modes — the scale claim is the point, and the CI gate asserts it.
func E15(smoke bool) (E15Report, error) {
	samples := 4000
	if smoke {
		samples = 2000
	}
	swarm := E13SwarmConfig{Bindings: 1_000_000, Hosts: 16, Nodes: 32,
		Services: 64, Shards: 4, TypeReplicas: 4}
	var rep E15Report
	var err error
	if rep.TypeRepo, err = E15TypeRepo(samples); err != nil {
		return rep, err
	}
	rep.Bus = E15Bus(samples)
	if rep.Swarm, err = E13Swarm(swarm); err != nil {
		return rep, err
	}
	if rep.Crash, err = E15CrashStorm(64); err != nil {
		return rep, err
	}
	return rep, nil
}

// Records flattens the report into the unified benchmark-record shape.
func (r E15Report) Records() []Record {
	var out []Record
	for _, t := range r.TypeRepo {
		out = append(out, Record{
			Experiment: "e15",
			Scenario:   "typerepo-" + t.Mode,
			Params: map[string]float64{
				"replicas": float64(t.Replicas),
			},
			Metrics: map[string]float64{
				"calls":           float64(t.Calls),
				"throughput":      t.Throughput,
				"authority_reads": float64(t.AuthorityReads),
				"replica_reads":   float64(t.ReplicaReads),
			},
		})
	}
	for _, b := range r.Bus {
		out = append(out, Record{
			Experiment: "e15",
			Scenario:   "bus-" + b.Mode,
			Params:     map[string]float64{"shards": float64(b.Shards)},
			Metrics: map[string]float64{
				"events":     float64(b.Events),
				"throughput": b.Throughput,
			},
		})
	}
	s := r.Swarm
	out = append(out, Record{
		Experiment: "e15",
		Scenario:   "swarm",
		Params: map[string]float64{
			"hosts":         float64(s.Config.Hosts),
			"nodes":         float64(s.Config.Nodes),
			"services":      float64(s.Config.Services),
			"shards":        float64(s.Config.Shards),
			"type_replicas": float64(s.Config.TypeReplicas),
		},
		Metrics: map[string]float64{
			"bindings":         float64(s.Bindings),
			"lost_lookups":     float64(s.LostLookups),
			"conns":            float64(s.Conns),
			"dials":            float64(s.Dials),
			"cache_hit_rate":   s.CacheHitRate,
			"heap_per_binding": float64(s.HeapPerBinding),
			"p50_us":           float64(s.P50.Microseconds()),
			"p99_us":           float64(s.P99.Microseconds()),
			"bindings_per_sec": s.PerSec,
		},
	})
	c := r.Crash
	out = append(out, Record{
		Experiment: "e15",
		Scenario:   "crash-rebalance",
		Params:     map[string]float64{"offers": float64(c.Offers)},
		Metrics: map[string]float64{
			"probes":          float64(c.Probes),
			"misses":          float64(c.Misses),
			"max_blackout_us": float64(c.MaxBlackout.Microseconds()),
			"migrated":        float64(c.Migrated),
			"rebalances":      float64(c.Rebalances),
			"crash_events":    float64(c.CrashEvents),
			"group_size":      float64(c.GroupSize),
		},
	})
	return out
}
