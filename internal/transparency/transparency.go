// Package transparency realises the distribution transparencies of
// Section 9 of the tutorial by configuring engineering-viewpoint
// mechanisms from computational-viewpoint environment contracts.
//
// "The aim of transparencies is to shift the complexities of distributed
// systems from the applications developers to the supporting
// infrastructure." Concretely, each prescribed transparency maps to a
// mechanism built elsewhere in this repository:
//
//	access       → marshalling stubs using the canonical transfer syntax (wire)
//	location     → interface references resolved via the relocator, never raw addresses
//	relocation   → binder re-resolves and replays on stale locations (channel)
//	migration    → cluster migration with preserved interface identity (engineering)
//	persistence  → auto-reactivation of deactivated clusters (engineering)
//	failure      → retry/failover binder + checkpoint recovery (channel, coordination)
//	replication  → replica group behind a sequencing proxy (coordination)
//	transaction  → object refinement reporting reads/writes to the
//	               transaction function (this package + transactions)
//
// Transaction transparency is deliberately NOT a channel stage: as
// Section 9.3 explains, the actions of interest happen inside objects and
// are invisible to stubs and binders, so it "must involve the refinement
// of a transaction-transparent specification" — here, the Transactional
// handler wrapper plus the Tx context accessor.
package transparency

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/security"
	"repro/internal/transactions"
	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

// Configuration error sentinels.
var (
	ErrNeedLocator   = errors.New("transparency: contract requires a locator (relocation/location/migration)")
	ErrNeedCredseed  = errors.New("transparency: contract requires credentials (authenticated security)")
	ErrNeedTransport = errors.New("transparency: environment provides no transport")
)

// Env is what the engineering environment offers a binding: transport,
// relocator access, credentials and audit sink. The configurator combines
// it with a contract to produce channel configurations.
type Env struct {
	Transport netsim.Transport
	// Sessions multiplexes every binding created under this environment
	// over shared per-endpoint transport sessions (one connection, one
	// read loop and one heartbeat per remote node, however many bindings
	// and replica proxies point there). Optional; nil gives each binding
	// a private session.
	Sessions *channel.SessionManager
	Locator  channel.Locator
	// Principal and Secret authenticate this end when the contract asks
	// for SecurityAuthenticated or stronger.
	Principal string
	Secret    []byte
	// AuditSink receives audit-stub records when the contract asks for
	// SecurityAudited.
	AuditSink func(channel.AuditEntry)
	// Type enables client-side type checking when known.
	Type *types.Interface
	// Instruments enables management instrumentation of bindings created
	// under this environment (tracing, metrics). Optional.
	Instruments *mgmt.ChannelClientInstruments
	// Policy holds the engineering choices of failure transparency for
	// bindings created under this environment whose contract asks for it:
	// the deadline budget shared by all attempts and the seeded backoff
	// between retries. Not part of the computational contract, so it lives
	// on the environment. Attempt count and per-attempt timeout left zero
	// are filled from the contract; the zero value is therefore immediate
	// retries with a fresh timeout each and no budget.
	Policy policy.RetryPolicy
}

// ClientConfig assembles the client channel configuration that realises
// the contract in the given environment.
func ClientConfig(contract core.Contract, env Env) (channel.BindConfig, error) {
	if err := contract.Validate(); err != nil {
		return channel.BindConfig{}, err
	}
	if env.Transport == nil && env.Sessions == nil {
		return channel.BindConfig{}, ErrNeedTransport
	}
	cfg := channel.BindConfig{
		Transport:   env.Transport,
		Sessions:    env.Sessions,
		Type:        env.Type,
		Instruments: env.Instruments,
	}
	req := contract.Require

	// Access transparency: marshal through the canonical representation so
	// heterogeneous peers interwork. Without it, both ends must share the
	// native host representation (cheaper, non-portable).
	if req.Has(core.Access) {
		cfg.Codec = wire.Canonical
	} else {
		cfg.Codec = wire.Native
	}

	// Location, relocation and migration transparency all need the
	// relocator: location to avoid raw addresses, relocation/migration to
	// chase moves.
	if req.Has(core.Location) || req.Has(core.Relocation) || req.Has(core.Migration) {
		if env.Locator == nil {
			return channel.BindConfig{}, ErrNeedLocator
		}
		cfg.Locator = env.Locator
	}

	// Failure transparency: the contract supplies the retry count and the
	// per-attempt bound unless the environment's policy already fixes them.
	// Without it a latency bound still limits the single attempt.
	if req.Has(core.Failure) {
		cfg.Policy = env.Policy
		if cfg.Policy.MaxAttempts == 0 {
			cfg.Policy.MaxAttempts = contract.EffectiveRetries() + 1
		}
		if cfg.Policy.AttemptTimeout == 0 {
			cfg.Policy.AttemptTimeout = 2 * time.Second
			if contract.MaxLatency > 0 {
				cfg.Policy.AttemptTimeout = contract.MaxLatency
			}
		}
	} else {
		cfg.Policy.AttemptTimeout = contract.MaxLatency
	}

	// Security: credentials first (innermost), audit outermost so it sees
	// exactly what the application attempted.
	if contract.Security >= core.SecurityAudited {
		cfg.Stages = append(cfg.Stages, &channel.AuditStage{Sink: env.AuditSink})
	}
	if contract.Security >= core.SecurityAuthenticated {
		if env.Principal == "" || len(env.Secret) == 0 {
			return channel.BindConfig{}, ErrNeedCredseed
		}
		cfg.Stages = append(cfg.Stages, &security.SignStage{Principal: env.Principal, Secret: env.Secret})
	}
	return cfg, nil
}

// Bind resolves ref (through the locator when location transparency is
// required) and creates the contract-configured binding.
func Bind(ref naming.InterfaceRef, contract core.Contract, env Env) (*channel.Binding, error) {
	cfg, err := ClientConfig(contract, env)
	if err != nil {
		return nil, err
	}
	if cfg.Locator != nil {
		// Location transparency: the reference's embedded endpoint is only
		// a hint; the authoritative location comes from the relocator.
		if fresh, err := cfg.Locator.Lookup(ref.ID); err == nil {
			ref = fresh
		}
	}
	return channel.Bind(ref, cfg)
}

// ClusterOptions derives engineering cluster options from a contract:
// persistence transparency turns on auto-reactivation.
func ClusterOptions(contract core.Contract) engineering.ClusterOptions {
	return engineering.ClusterOptions{
		AutoReactivate: contract.Require.Has(core.Persistence),
	}
}

// Replicate builds the replication-transparency proxy: one binding per
// replica reference, assembled into a sequencing group that presents the
// common interface. The group size must meet the contract's replica
// degree.
func Replicate(refs []naming.InterfaceRef, contract core.Contract, env Env) (*coordination.ReplicaGroup, error) {
	want := contract.EffectiveReplicas()
	if len(refs) < want {
		return nil, fmt.Errorf("transparency: contract requires %d replicas, got %d", want, len(refs))
	}
	g := coordination.NewReplicaGroup()
	for _, ref := range refs {
		b, err := Bind(ref, contract, env)
		if err != nil {
			_ = g.Close()
			return nil, err
		}
		if err := g.Add(ref.ID.String(), b); err != nil {
			_ = b.Close()
			_ = g.Close()
			return nil, err
		}
	}
	return g, nil
}

// ---------------------------------------------------------------------------
// transaction transparency: object refinement

// TxFrom extracts the ambient transaction installed by Transactional. A
// refined object uses it to report its reads and writes to the
// transaction function:
//
//	func (b *branch) Invoke(ctx context.Context, op string, args []values.Value) (...) {
//		tx := transparency.TxFrom(ctx)
//		bal, err := tx.Read(b.store, key)
//		...
//	}
func TxFrom(ctx context.Context) *transactions.Tx {
	tx, _ := ctx.Value((*transactions.Tx)(nil)).(*transactions.Tx)
	return tx
}

// Transactional refines a handler into a transaction-transparent one:
// every invocation runs inside its own ACID transaction, committed when
// the handler succeeds and aborted when it fails (an application
// termination whose name starts with "Error" also aborts, so failed
// business outcomes roll back). Deadlocks retry via the coordinator.
func Transactional(coord *transactions.Coordinator, inner channel.Handler) channel.Handler {
	return channel.HandlerFunc(func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
		var term string
		var results []values.Value
		err := coord.Atomically(ctx, func(tx *transactions.Tx) error {
			var err error
			term, results, err = inner.Invoke(tx.Context(), op, args)
			if err != nil {
				return err
			}
			if len(term) >= 5 && term[:5] == "Error" {
				return errAbortTermination
			}
			return nil
		})
		if err != nil && !errors.Is(err, errAbortTermination) {
			return "", nil, err
		}
		return term, results, nil
	})
}

// errAbortTermination signals "abort the transaction but deliver the
// application termination" inside Transactional.
var errAbortTermination = errors.New("transparency: abort on error termination")
