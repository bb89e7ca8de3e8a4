// Scaling sections for the fan-out experiments: where bench/ prices one
// interaction, these measure how its cost grows with the number of
// parties — replica count, participant count, offer population and
// federation width. They run over the simulated network with nonzero
// per-link latency (or, for 2PC, a nonzero forced-log delay), because that
// is where the sum-vs-max distinction between serial and concurrent
// fan-out actually shows.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bank"
	"repro/internal/coordination"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/trader"
	"repro/internal/transactions"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

// ReplicaLatency is the one-way per-link delay used by the replication
// scaling scenarios: large against the base invocation cost, small enough
// to keep the runs short.
const ReplicaLatency = 200 * time.Microsecond

// ForcedLogDelay models the forced (synchronous) log write each 2PC
// participant performs in Prepare and Commit — the cost that makes
// two-phase commit expensive in real deployments, where in-memory stores
// hide it.
const ForcedLogDelay = 50 * time.Microsecond

// scalingCalls is how many calls each scaling scenario times: 200 at full
// size, 20 in the smoke slice.
func scalingCalls(smoke bool) int {
	if smoke {
		return 20
	}
	return 200
}

// timed warms op up for a tenth of calls, then drives it calls times from
// one worker through closedLoop and records the scenario's mean cost
// (elapsed/calls) and latency quantiles.
func timed(id, scenario string, calls int, op func(n int) error) (Record, error) {
	loop := func(_, n int) error { return op(n) }
	elapsed, lats, err := closedLoop(1, calls/10, loop) // the warm-up
	if err == nil {
		elapsed, lats, err = closedLoop(1, calls, loop)
	}
	if err != nil {
		return Record{}, fmt.Errorf("%s %s: %w", id, scenario, err)
	}
	p50, p99 := quantiles(lats)
	return Record{Experiment: id, Scenario: scenario, Metrics: map[string]float64{
		"ns_per_op": float64(elapsed.Nanoseconds()) / float64(calls),
		"p50_us":    float64(p50) / float64(time.Microsecond),
		"p99_us":    float64(p99) / float64(time.Microsecond),
	}}, nil
}

// e6d is the E6d section: one group update against replica count over the
// simulated network with ReplicaLatency on every link. A serial sequencer
// pays Σ(replica round trips); a concurrent one pays max(replica round
// trips) plus the sequencing overhead.
func e6d(smoke bool) ([]Record, string, error) {
	var recs []Record
	for _, r := range []int{1, 3, 5, 9} {
		rec, err := replicationLatent(r, scalingCalls(smoke))
		if err != nil {
			return nil, "", err
		}
		recs = append(recs, rec)
	}
	return recs, "", nil
}

// replicationLatent times one update of an r-replica group of counters.
func replicationLatent(r, calls int) (Record, error) {
	f := newFleet(int64(300 + r))
	defer f.close()
	f.net.SetDefaultLink(netsim.LinkProfile{Latency: ReplicaLatency})
	group := coordination.NewReplicaGroup()
	for i := 0; i < r; i++ {
		host := fmt.Sprintf("rep%d", i)
		b, err := f.serve(host, naming.InterfaceID{Nonce: uint64(1000 + i)}, e6CounterType(), &e6Counter{})
		if err == nil {
			err = group.Add(host, b)
		}
		if err != nil {
			return Record{}, err
		}
	}
	ctx := context.Background()
	arg := []values.Value{values.Int(1)}
	return timed("e6d", fmt.Sprintf("replication-latent/r=%d", r), calls, func(int) error {
		_, _, err := group.Invoke(ctx, "Inc", arg)
		return err
	})
}

// forcedParticipant wraps a transactional resource with the forced-log
// delay a durable participant pays in each phase of 2PC.
type forcedParticipant struct {
	inner transactions.Participant
	delay time.Duration
}

func (f forcedParticipant) Name() string { return f.inner.Name() }

func (f forcedParticipant) Prepare(txID uint64) (transactions.Vote, error) {
	time.Sleep(f.delay)
	return f.inner.Prepare(txID)
}

func (f forcedParticipant) Commit(txID uint64) error {
	time.Sleep(f.delay)
	return f.inner.Commit(txID)
}

func (f forcedParticipant) Abort(txID uint64) error { return f.inner.Abort(txID) }

// e7b is the E7b section: commit latency against participant count when
// every participant's Prepare and Commit forces a (simulated) log write of
// ForcedLogDelay. Serial 2PC pays 2·n·delay; concurrent phases pay
// 2·delay regardless of n.
func e7b(smoke bool) ([]Record, string, error) {
	var recs []Record
	for _, parts := range []int{1, 2, 4, 8} {
		coord := transactions.NewCoordinator()
		stores := make([]*transactions.Store, parts)
		wrapped := make([]transactions.Participant, parts)
		for i := range stores {
			stores[i] = transactions.NewStore(fmt.Sprintf("d%d", i), nil)
			wrapped[i] = forcedParticipant{inner: stores[i], delay: ForcedLogDelay}
		}
		ctx := context.Background()
		rec, err := timed("e7b", fmt.Sprintf("durable-commit/participants=%d", parts), scalingCalls(smoke), func(n int) error {
			tx := coord.Begin(ctx)
			key := fmt.Sprintf("k%d", n%128)
			for _, s := range stores {
				if err := tx.Write(s, key, values.Int(int64(n))); err != nil {
					return err
				}
			}
			// Re-enlist each store behind its forced-log wrapper (same
			// participant name, so it replaces the raw store) so the delay
			// applies to the prepare/commit the store performs.
			for _, w := range wrapped {
				if err := tx.Enlist(w); err != nil {
					return err
				}
			}
			return tx.Commit()
		})
		if err != nil {
			return nil, "", err
		}
		recs = append(recs, rec)
	}
	return recs, "", nil
}

// e8b is the E8b section: an import over a type-indexed population, and a
// federated import fanned out over latent links.
func e8b(smoke bool) ([]Record, string, error) {
	indexed, err := traderScaling(scalingCalls(smoke))
	if err != nil {
		return nil, "", err
	}
	federated, err := federationParallel(scalingCalls(smoke))
	if err != nil {
		return nil, "", err
	}
	return []Record{indexed, federated}, "", nil
}

// scalingServiceType builds an interface type unique to index i, so the 50
// populations of traderScaling are mutually non-substitutable and the
// indexed store can prove it prunes whole buckets.
func scalingServiceType(i int) *types.Interface {
	op := fmt.Sprintf("Svc%dOp", i)
	return types.OpInterface(fmt.Sprintf("Svc%d", i),
		types.Op(op, types.Params(types.P("x", values.TInt())),
			types.Term("OK", types.P("r", values.TInt()))),
	)
}

// traderScaling times an import over a population of 10 000 offers spread
// evenly across 50 mutually unrelated service types. A full-scan matcher
// examines all 10 000 offers per import; a type-indexed store examines
// only the requested type's bucket (200 offers).
func traderScaling(calls int) (Record, error) {
	const (
		offers       = 10_000
		serviceTypes = 50
	)
	repo := typerepo.New()
	for i := 0; i < serviceTypes; i++ {
		if err := repo.RegisterInterface(scalingServiceType(i)); err != nil {
			return Record{}, err
		}
	}
	t := trader.New("big", repo)
	for i := 0; i < offers; i++ {
		st := fmt.Sprintf("Svc%d", i%serviceTypes)
		if _, err := t.Export(st, naming.InterfaceRef{
			ID:       naming.InterfaceID{Nonce: uint64(i + 1)},
			TypeName: st,
			Endpoint: "sim://x",
		}, values.Record(values.F("queue", values.Int(int64((i/serviceTypes)%10))))); err != nil {
			return Record{}, err
		}
	}
	return timed("e8b", fmt.Sprintf("import/offers=%d/types=%d", offers, serviceTypes), calls, func(int) error {
		got, err := t.Import(trader.ImportRequest{ServiceType: "Svc7", Constraint: "queue < 5"})
		if err != nil || len(got) != offers/serviceTypes/2 {
			return fmt.Errorf("import: %d offers, %v", len(got), err)
		}
		return nil
	})
}

// federationParallel times a federated import across four linked traders,
// each reached over a channel with ReplicaLatency per direction. Serial
// federation pays Σ(link round trips); concurrent federation pays
// max(link round trips).
func federationParallel(calls int) (Record, error) {
	const links = 4
	repo := typerepo.New()
	for _, it := range []*types.Interface{bank.TellerType(), bank.ManagerType()} {
		if err := repo.RegisterInterface(it); err != nil {
			return Record{}, err
		}
	}

	f := newFleet(77)
	defer f.close()
	f.net.SetDefaultLink(netsim.LinkProfile{Latency: ReplicaLatency})
	origin := trader.NewSharded("origin", repo, 0) // one shard, no offers
	if err := origin.AddShard("origin", trader.New("origin", repo)); err != nil {
		return Record{}, err
	}
	for i := 0; i < links; i++ {
		host := fmt.Sprintf("fed%d", i)
		rt := trader.New(host, repo)
		for j := 0; j < 5; j++ {
			if _, err := rt.Export("BankTeller", naming.InterfaceRef{
				ID:       naming.InterfaceID{Nonce: uint64(100*i + j + 1)},
				TypeName: "BankTeller",
				Endpoint: "sim://x",
			}, values.Record(values.F("queue", values.Int(int64(j))))); err != nil {
				return Record{}, err
			}
		}
		b, err := f.serve(host, naming.InterfaceID{Nonce: uint64(2000 + i)}, trader.InterfaceType(), &trader.Servant{T: rt})
		if err != nil {
			return Record{}, err
		}
		origin.Link(host, trader.NewRemote(b))
	}
	return timed("e8b", fmt.Sprintf("import/federated-latent/links=%d", links), calls, func(int) error {
		got, err := origin.Import(trader.ImportRequest{ServiceType: "BankTeller", MaxHops: 1})
		if err != nil || len(got) != links*5 {
			return fmt.Errorf("federated import: %d offers, %v", len(got), err)
		}
		return nil
	})
}
