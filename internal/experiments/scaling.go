// Scaling scenarios for the fan-out experiments: where E6–E8 measure the
// cost of one interaction, these measure how that cost grows with the
// number of parties — replica count, participant count, offer population
// and federation width. They run over the simulated network with nonzero
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
// to keep benchmark runs short.
const ReplicaLatency = 200 * time.Microsecond

// ForcedLogDelay models the forced (synchronous) log write each 2PC
// participant performs in Prepare and Commit — the cost that makes
// two-phase commit expensive in real deployments, where the in-memory
// stores of E7 hide it.
const ForcedLogDelay = 50 * time.Microsecond

// E6ReplicationScaling measures one group update against replica count
// over the simulated network with ReplicaLatency on every link. A serial
// sequencer pays Σ(replica round trips); a concurrent one pays
// max(replica round trips) plus the sequencing overhead.
func E6ReplicationScaling() []Scenario {
	var out []Scenario
	for _, r := range []int{1, 3, 5, 9} {
		f := newFleet(int64(300 + r))
		f.net.SetDefaultLink(netsim.LinkProfile{Latency: ReplicaLatency})
		group := coordination.NewReplicaGroup()
		for i := 0; i < r; i++ {
			host := fmt.Sprintf("rep%d", i)
			b, err := f.serve(host, naming.InterfaceID{Nonce: uint64(1000 + i)}, e6CounterType(), &e6Counter{})
			must(err)
			must(group.Add(host, b))
		}
		ctx := context.Background()
		arg := []values.Value{values.Int(1)}
		out = append(out, Scenario{
			Name: fmt.Sprintf("replication-latent/r=%d", r),
			Run: func() error {
				_, _, err := group.Invoke(ctx, "Inc", arg)
				return err
			},
			Close: f.close,
		})
	}
	return out
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

// E7DurableCommit measures commit latency against participant count when
// every participant's Prepare and Commit forces a (simulated) log write of
// ForcedLogDelay. Serial 2PC pays 2·n·delay; concurrent phases pay
// 2·delay regardless of n.
func E7DurableCommit() []Scenario {
	var out []Scenario
	for _, parts := range []int{1, 2, 4, 8} {
		coord := transactions.NewCoordinator()
		stores := make([]*transactions.Store, parts)
		wrapped := make([]transactions.Participant, parts)
		for i := range stores {
			stores[i] = transactions.NewStore(fmt.Sprintf("d%d", i), nil)
			wrapped[i] = forcedParticipant{inner: stores[i], delay: ForcedLogDelay}
		}
		ctx := context.Background()
		n := 0
		p := parts
		out = append(out, Scenario{
			Name: fmt.Sprintf("durable-commit/participants=%d", p),
			Run: func() error {
				tx := coord.Begin(ctx)
				n++
				key := fmt.Sprintf("k%d", n%128)
				for _, s := range stores {
					if err := tx.Write(s, key, values.Int(int64(n))); err != nil {
						return err
					}
				}
				// Re-enlist each store behind its forced-log wrapper (same
				// participant name, so it replaces the raw store) so the
				// delay applies to the prepare/commit the store performs.
				for _, w := range wrapped {
					if err := tx.Enlist(w); err != nil {
						return err
					}
				}
				return tx.Commit()
			},
			Close: func() {},
		})
	}
	return out
}

// scalingServiceType builds an interface type unique to index i, so the 50
// populations of E8TraderScaling are mutually non-substitutable and the
// indexed store can prove it prunes whole buckets.
func scalingServiceType(i int) *types.Interface {
	op := fmt.Sprintf("Svc%dOp", i)
	return types.OpInterface(fmt.Sprintf("Svc%d", i),
		types.Op(op, types.Params(types.P("x", values.TInt())),
			types.Term("OK", types.P("r", values.TInt()))),
	)
}

// E8TraderScaling measures import cost over a population of 10 000 offers
// spread evenly across 50 mutually unrelated service types. A full-scan
// matcher examines all 10 000 offers per import; a type-indexed store
// examines only the requested type's bucket (200 offers).
func E8TraderScaling() []Scenario {
	const (
		offers       = 10_000
		serviceTypes = 50
	)
	repo := typerepo.New()
	for i := 0; i < serviceTypes; i++ {
		must(repo.RegisterInterface(scalingServiceType(i)))
	}
	t := trader.New("big", repo)
	for i := 0; i < offers; i++ {
		st := fmt.Sprintf("Svc%d", i%serviceTypes)
		_, err := t.Export(st, naming.InterfaceRef{
			ID:       naming.InterfaceID{Nonce: uint64(i + 1)},
			TypeName: st,
			Endpoint: "sim://x",
		}, values.Record(values.F("queue", values.Int(int64((i/serviceTypes)%10)))))
		must(err)
	}
	tt := t
	return []Scenario{{
		Name: fmt.Sprintf("import/offers=%d/types=%d", offers, serviceTypes),
		Run: func() error {
			got, err := tt.Import(trader.ImportRequest{
				ServiceType: "Svc7",
				Constraint:  "queue < 5",
			})
			if err != nil || len(got) != offers/serviceTypes/2 {
				return fmt.Errorf("import: %d offers, %v", len(got), err)
			}
			return nil
		},
		Close: func() {},
	}}
}

// E8FederationParallel measures a federated import across four linked
// traders, each reached over a channel with ReplicaLatency per direction.
// Serial federation pays Σ(link round trips); concurrent federation pays
// max(link round trips).
func E8FederationParallel() []Scenario {
	const links = 4
	repo := typerepo.New()
	must(repo.RegisterInterface(bank.TellerType()))
	must(repo.RegisterInterface(bank.ManagerType()))

	f := newFleet(77)
	f.net.SetDefaultLink(netsim.LinkProfile{Latency: ReplicaLatency})
	origin := trader.New("origin", repo)
	for i := 0; i < links; i++ {
		host := fmt.Sprintf("fed%d", i)
		rt := trader.New(host, repo)
		for j := 0; j < 5; j++ {
			_, err := rt.Export("BankTeller", naming.InterfaceRef{
				ID:       naming.InterfaceID{Nonce: uint64(100*i + j + 1)},
				TypeName: "BankTeller",
				Endpoint: "sim://x",
			}, values.Record(values.F("queue", values.Int(int64(j)))))
			must(err)
		}
		b, err := f.serve(host, naming.InterfaceID{Nonce: uint64(2000 + i)}, trader.InterfaceType(), &trader.Servant{T: rt})
		must(err)
		origin.Link(host, trader.NewRemote(b))
	}
	return []Scenario{{
		Name: fmt.Sprintf("import/federated-latent/links=%d", links),
		Run: func() error {
			got, err := origin.Import(trader.ImportRequest{
				ServiceType: "BankTeller",
				MaxHops:     1,
			})
			if err != nil || len(got) != links*5 {
				return fmt.Errorf("federated import: %d offers, %v", len(got), err)
			}
			return nil
		},
		Close: f.close,
	}}
}
