// Package odp is the facade that assembles an ODP system from the
// viewpoint packages: it owns the infrastructure objects (type repository,
// relocator, trader, event bus) of Section 8 of the tutorial, creates
// engineering nodes, deploys computational object templates onto them and
// binds clients through the transparency configurator.
//
// It also implements the Figure 1 correspondence: CheckConsistency
// verifies that an application's enterprise, information, computational,
// engineering and technology specifications agree with one another —
// every governed action is realised by an operation, every dynamic schema
// has a computational counterpart, every template can actually be
// instantiated, and the chosen technology conforms.
package odp

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/health"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/relocator"
	"repro/internal/trader"
	"repro/internal/transparency"
	"repro/internal/typerepo"
	"repro/internal/values"
)

// Facade error sentinels.
var (
	ErrNodeExists = errors.New("odp: node already exists")
	ErrNoSuchNode = errors.New("odp: no such node")
	ErrNoOffers   = errors.New("odp: no matching offers")
)

// Bus topics the facade publishes on. Together with mgmt.ViolationTopic
// (QoS violations, published by monitors handed the system bus) these
// are the control-plane event streams a sharded bus spreads across
// shards.
const (
	// TopicDeployed announces each successful Deploy.
	TopicDeployed = "odp.deployed"
	// TopicRelocated carries every relocator registration, move and
	// removal, bridged from the relocator's callback interface: a record
	// {ref, removed}. Relocation watchers (the client-side cache among
	// them) subscribe here instead of holding a private callback.
	TopicRelocated = "odp.relocated"
	// TopicBreaker carries circuit-breaker transitions: a record
	// {host, endpoint, state} published when a breaker trips open or
	// re-closes.
	TopicBreaker = "policy.breaker"
)

// System is one ODP system: a simulated network, the shared
// infrastructure objects, and the nodes deployed into it.
type System struct {
	Net       *netsim.Network
	Relocator *relocator.Relocator
	Types     typerepo.Repository
	Trader    *trader.Trader
	// Bus is the system event bus: a singleton coordination.Bus by
	// default, or a topic-sharded front-end once ShardBus has been
	// called. Reconfigure (ShardBus) during setup, before concurrent
	// publishers exist; holders should re-read the field (or use the
	// accessor on System) rather than caching it across a ShardBus call.
	Bus coordination.EventBus

	mu    sync.Mutex
	nodes map[string]*engineering.Node
	// sessions caches one SessionManager per client host, so every
	// binding a host opens — across Env/Bind/ImportAndBind calls and
	// replica groups — multiplexes over one transport session per peer
	// node instead of one connection per binding.
	sessions map[string]*channel.SessionManager
	mgmt     *mgmt.Management
	// breakerCfg, when set by EnableBreakers, mints one shared BreakerSet
	// per client host; defaultPol, when set by SetDefaultPolicy, is the
	// retry policy Env hands to every binding configured afterwards.
	breakerCfg *policy.BreakerConfig
	defaultPol policy.RetryPolicy
	// directory, when set by ShardTrader, replaces the single Trader as
	// the trading function Deploy and ImportAndBind use (nil = s.Trader).
	directory trader.Shard
	// cache, when set by EnableRelocationCache, is the bounded
	// epoch-fenced client-side relocation cache Env hands to bindings as
	// their Locator; cacheCancel unsubscribes it from the bus.
	cache       *relocator.Cache
	cacheCancel func()
	// bridgeCancel unsubscribes the relocator -> bus event bridge.
	bridgeCancel func()
	// health, when set by EnableHealth, is the failure detector whose
	// transitions are published on TopicLiveness; recovery, when set by
	// EnableRecovery, is the controller acting on them (recoveryCancel
	// unsubscribes it from the bus).
	health         *health.Detector
	recovery       *health.Controller
	recoveryCancel func()
}

// bus returns the current event bus under the lock, so publishers racing
// a ShardBus reconfiguration read a coherent value.
func (s *System) bus() coordination.EventBus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Bus
}

// EnableManagement creates the system's management domain and wires it
// into the shared infrastructure: network frame counters and the trader
// immediately, server-dispatch instruments on every node created
// afterwards, and client instruments on every binding configured through
// Env/Bind/ImportAndBind. Idempotent; returns the domain. Enable before
// creating nodes to observe their server ends.
func (s *System) EnableManagement() *mgmt.Management {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mgmt == nil {
		s.mgmt = mgmt.New()
		s.Net.Instrument(s.mgmt.Net("sim"))
		s.Trader.Instrument(s.mgmt.TraderInstr("trader"))
		switch b := s.Bus.(type) {
		case *coordination.ShardedBus:
			b.Instrument(s.mgmt)
		case *coordination.Bus:
			b.Instrument(s.mgmt.Bus("bus"))
		}
		if st, ok := s.directory.(*trader.ShardedTrader); ok {
			s.instrumentShardedLocked(st)
		}
		for host, sm := range s.sessions {
			sm.Instrument(s.mgmt.Sessions(host))
			if bs := sm.Breakers(); bs != nil {
				bs.Instrument(s.mgmt.Policy(host))
			}
		}
	}
	return s.mgmt
}

// EnableBreakers attaches one shared circuit-breaker set per client
// host's session manager — hosts already known and any created later —
// so every binding a host holds to a dead endpoint fails fast together,
// and the single half-open probe that re-closes the breaker is shared
// too. With management enabled, each set reports under policy.<host>.*
// (breaker.open, breaker.open_now, breaker.rejected, retry.backoff_ns),
// which is what lets odpstat show breaker state live.
func (s *System) EnableBreakers(cfg policy.BreakerConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.breakerCfg = &cfg
	for host, sm := range s.sessions {
		s.attachBreakersLocked(host, sm)
	}
}

func (s *System) attachBreakersLocked(host string, sm *channel.SessionManager) {
	if s.breakerCfg == nil || sm.Breakers() != nil {
		return
	}
	cfg := *s.breakerCfg
	if cfg.OnTransition == nil {
		// Publish breaker transitions on the system bus, keyed by the
		// client host whose set tripped. The hook runs outside breaker
		// locks; slow consumers should subscribe with a bounded queue.
		cfg.OnTransition = func(key string, to policy.State) {
			s.bus().Publish(TopicBreaker, values.Record(
				values.F("host", values.Str(host)),
				values.F("endpoint", values.Str(key)),
				values.F("state", values.Str(to.String())),
			))
		}
	}
	bs := policy.NewBreakerSet(cfg)
	bs.Instrument(s.mgmt.Policy(host))
	sm.SetBreakers(bs)
}

// Directory returns the trading function clients of this system go
// through: the single Trader by default, or the sharded front-end once
// ShardTrader has been called.
func (s *System) Directory() trader.Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.directory != nil {
		return s.directory
	}
	return s.Trader
}

// ShardTrader partitions the system's trading function: shards local
// trader objects are created ("shard0".."shardN-1"), joined to a
// consistent-hash ring keyed by service type, and fronted by a
// ShardedTrader that Deploy and ImportAndBind use from then on. Offers
// already exported to the legacy single Trader stay where they are (call
// this before deploying); new exports route to their owning shard. The
// front-end is returned so callers can rebalance (AddShard/RemoveShard)
// or add remote shards.
func (s *System) ShardTrader(shards int) (*trader.ShardedTrader, error) {
	if shards < 1 {
		return nil, fmt.Errorf("odp: ShardTrader needs >= 1 shards, got %d", shards)
	}
	st := trader.NewSharded("trader", s.Types, 0)
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard%d", i)
		if err := st.AddShard(name, trader.New(name, s.Types)); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.directory = st
	if s.mgmt != nil {
		s.instrumentShardedLocked(st)
	}
	s.mu.Unlock()
	return st, nil
}

func (s *System) instrumentShardedLocked(st *trader.ShardedTrader) {
	m := s.mgmt
	st.Instrument(m.TraderShards("trader"))
	st.InstrumentShards(func(shard string) *mgmt.ShardLegInstruments {
		return m.TraderShardLeg("trader", shard)
	})
}

// EnableRelocationCache puts a bounded, epoch-fenced location cache in
// front of the system relocator for every binding configured through
// Env/Bind/ImportAndBind afterwards: the hot re-bind path pays a map
// read instead of a relocator lookup while its entry is fresh. The cache
// subscribes to the relocator's events, so co-resident moves and
// removals fence or invalidate entries immediately; bindings invalidate
// entries on staleness evidence through channel.LocationInvalidator.
// Idempotent; returns the cache.
func (s *System) EnableRelocationCache(capacity int) *relocator.Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		cache := relocator.NewCache(s.Relocator, capacity)
		s.cache = cache
		// The cache is a relocation watcher: it observes the bus bridge
		// (TopicRelocated) rather than holding a private relocator
		// callback, so it follows the bus when the bus is sharded. Bus
		// delivery for inline subscribers is synchronous and per-topic
		// ordered — the same guarantee the direct subscription gave, which
		// the cache's epoch fencing relies on.
		s.cacheCancel = s.Bus.Subscribe(TopicRelocated, nil, func(ev coordination.Event) {
			rev, err := relocationFromValue(ev.Payload)
			if err != nil {
				return
			}
			cache.Observe(rev)
		})
	}
	return s.cache
}

// RelocationCache returns the client-side relocation cache, nil when
// disabled.
func (s *System) RelocationCache() *relocator.Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache
}

// SetDefaultPolicy installs the retry policy that Env (and so Bind and
// ImportAndBind) hands to every binding configured afterwards whose
// contract asks for failure transparency; what it leaves zero the
// contract fills (see transparency.Env.Policy). Existing bindings are
// unaffected.
func (s *System) SetDefaultPolicy(p policy.RetryPolicy) {
	s.mu.Lock()
	s.defaultPol = p
	s.mu.Unlock()
}

// Mgmt returns the system's management domain, nil when disabled.
func (s *System) Mgmt() *mgmt.Management {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mgmt
}

// NewSystem creates a system over a seeded simulated network.
func NewSystem(seed int64) *System {
	repo := typerepo.New()
	s := &System{
		Net:       netsim.New(seed),
		Relocator: relocator.New(),
		Types:     repo,
		Trader:    trader.New("trader", repo),
		Bus:       coordination.NewBus(),
		nodes:     make(map[string]*engineering.Node),
		sessions:  make(map[string]*channel.SessionManager),
	}
	// Bridge the relocator's callback interface onto the event bus, so
	// every relocation watcher in the system shares one subscription
	// surface (and follows the bus when it is sharded).
	s.bridgeCancel = s.Relocator.Subscribe(func(ev relocator.Event) {
		s.bus().Publish(TopicRelocated, relocationToValue(ev))
	})
	return s
}

// relocationToValue encodes a relocator event for the bus.
func relocationToValue(ev relocator.Event) values.Value {
	return values.Record(
		values.F("ref", ev.Ref.ToValue()),
		values.F("removed", values.Bool(ev.Removed)),
	)
}

// relocationFromValue decodes an event published on TopicRelocated.
func relocationFromValue(v values.Value) (relocator.Event, error) {
	var ev relocator.Event
	refV, ok := v.FieldByName("ref")
	if !ok {
		return ev, fmt.Errorf("odp: relocation event missing ref")
	}
	ref, err := naming.RefFromValue(refV)
	if err != nil {
		return ev, err
	}
	ev.Ref = ref
	if remV, ok := v.FieldByName("removed"); ok {
		ev.Removed, _ = remV.AsBool()
	}
	return ev, nil
}

// ShardBus replaces the system event bus with a topic-sharded front-end
// of the given shard count and returns it. Call during setup, before
// subscribers attach: subscriptions made on the previous bus are not
// migrated. The relocator bridge and Deploy announcements follow the
// new bus automatically, as do breaker transition events.
func (s *System) ShardBus(shards int) (*coordination.ShardedBus, error) {
	if shards < 1 {
		return nil, fmt.Errorf("odp: ShardBus needs >= 1 shards, got %d", shards)
	}
	sb := coordination.NewShardedBus(shards)
	s.mu.Lock()
	s.Bus = sb
	if s.mgmt != nil {
		sb.Instrument(s.mgmt)
	}
	s.mu.Unlock()
	return sb, nil
}

// ReplicateTypes puts a read-mostly replication front-end with n
// replicas in front of the type repository: lookups and substitutability
// checks made through s.Types are served from gen-fenced local replicas,
// registrations keep funnelling to the former repository (now the
// authority). Call before ShardTrader and Deploy so traders built
// afterwards read through the front-end. Idempotent; returns the
// front-end.
func (s *System) ReplicateTypes(replicas int) *typerepo.Replicated {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rep, ok := s.Types.(*typerepo.Replicated); ok {
		return rep
	}
	rep := typerepo.NewReplicated(s.Types, replicas)
	s.Types = rep
	return rep
}

// SessionsFor returns the client host's shared session manager, creating
// it on first use. All of the host's bindings multiplex over it: one
// connection, read loop and heartbeat per peer node.
func (s *System) SessionsFor(clientHost string) *channel.SessionManager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionsForLocked(clientHost)
}

func (s *System) sessionsForLocked(clientHost string) *channel.SessionManager {
	sm, ok := s.sessions[clientHost]
	if !ok {
		sm = channel.NewSessionManager(s.Net.From(clientHost))
		if s.mgmt != nil {
			sm.Instrument(s.mgmt.Sessions(clientHost))
		}
		s.attachBreakersLocked(clientHost, sm)
		s.sessions[clientHost] = sm
	}
	return sm
}

// CreateNode starts an engineering node on the simulated network.
func (s *System) CreateNode(name string) (*engineering.Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.nodes[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrNodeExists, name)
	}
	n, err := engineering.NewNode(engineering.NodeConfig{
		ID:        naming.NodeID(name),
		Endpoint:  naming.Endpoint("sim://" + name),
		Transport: s.Net.From(name),
		Locations: s.Relocator,
		Server: channel.ServerConfig{
			ReplayGuard: true,
			Instruments: s.mgmt.ChannelServer(name),
		},
	})
	if err != nil {
		return nil, err
	}
	s.nodes[name] = n
	return n, nil
}

// Node returns a previously created node.
func (s *System) Node(name string) (*engineering.Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, name)
	}
	return n, nil
}

// Nodes lists node names, sorted.
func (s *System) Nodes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.nodes))
	for n := range s.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Close shuts every node down.
func (s *System) Close() error {
	s.mu.Lock()
	nodes := make([]*engineering.Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.nodes = map[string]*engineering.Node{}
	managers := make([]*channel.SessionManager, 0, len(s.sessions))
	for _, sm := range s.sessions {
		managers = append(managers, sm)
	}
	s.sessions = map[string]*channel.SessionManager{}
	cancel := s.cacheCancel
	s.cacheCancel = nil
	bridge := s.bridgeCancel
	s.bridgeCancel = nil
	det, ctl, recCancel := s.health, s.recovery, s.recoveryCancel
	s.health, s.recovery, s.recoveryCancel = nil, nil, nil
	s.mu.Unlock()
	// Sensing stops first (no new transitions), then the acting half.
	if det != nil {
		det.Close()
	}
	if recCancel != nil {
		recCancel()
	}
	if ctl != nil {
		ctl.Close()
	}
	if cancel != nil {
		cancel()
	}
	if bridge != nil {
		bridge()
	}
	var first error
	for _, sm := range managers {
		_ = sm.Close()
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Deployment records a deployed computational object: its engineering
// realisation plus the references and trader offers of its interfaces.
type Deployment struct {
	Cluster *engineering.Cluster
	Object  *engineering.Object
	Refs    map[string]naming.InterfaceRef // interface type name -> ref
	Offers  map[string]string              // interface type name -> trader offer id
}

// Ref returns the deployed reference for an interface type.
func (d *Deployment) Ref(typeName string) (naming.InterfaceRef, bool) {
	ref, ok := d.Refs[typeName]
	return ref, ok
}

// Deploy instantiates a computational object template on a node: it
// validates the template, registers its interface types with the type
// repository, creates a capsule and a cluster (configured from the
// template's contracts — persistence transparency turns on
// auto-reactivation), creates the object, adds its interfaces and exports
// each to the trader with the given service properties.
func (s *System) Deploy(node *engineering.Node, tmpl core.ObjectTemplate, props values.Value) (*Deployment, error) {
	if err := tmpl.Validate(); err != nil {
		return nil, err
	}
	for _, decl := range tmpl.Interfaces {
		if err := s.Types.RegisterInterface(decl.Type); err != nil {
			return nil, err
		}
	}
	// One interface with persistence in its contract makes the whole
	// cluster reactivatable (the cluster is the unit of deactivation).
	opts := engineering.ClusterOptions{}
	for _, decl := range tmpl.Interfaces {
		if transparency.ClusterOptions(decl.Contract).AutoReactivate {
			opts.AutoReactivate = true
		}
	}
	capsule, err := node.CreateCapsule()
	if err != nil {
		return nil, err
	}
	cluster, err := capsule.CreateCluster(opts)
	if err != nil {
		return nil, err
	}
	obj, err := cluster.CreateObject(tmpl.Behavior, tmpl.Arg)
	if err != nil {
		return nil, err
	}
	dep := &Deployment{
		Cluster: cluster,
		Object:  obj,
		Refs:    make(map[string]naming.InterfaceRef, len(tmpl.Interfaces)),
		Offers:  make(map[string]string, len(tmpl.Interfaces)),
	}
	for _, decl := range tmpl.Interfaces {
		ref, err := obj.AddInterface(decl.Type)
		if err != nil {
			return nil, err
		}
		dep.Refs[decl.Type.Name] = ref
		offerID, err := s.Directory().Export(decl.Type.Name, ref, props)
		if err != nil {
			return nil, err
		}
		dep.Offers[decl.Type.Name] = offerID
	}
	s.bus().Publish(TopicDeployed, values.Record(
		values.F("template", values.Str(tmpl.Name)),
		values.F("node", values.Str(string(node.ID()))),
	))
	return dep, nil
}

// Env builds the transparency environment for a client at the given
// simulated host.
func (s *System) Env(clientHost string) transparency.Env {
	s.mu.Lock()
	pol := s.defaultPol
	var loc channel.Locator = s.Relocator
	if s.cache != nil {
		loc = s.cache
	}
	s.mu.Unlock()
	return transparency.Env{
		Transport:   s.Net.From(clientHost),
		Sessions:    s.SessionsFor(clientHost),
		Locator:     loc,
		Instruments: s.Mgmt().ChannelClient(clientHost),
		Policy:      pol,
	}
}

// Bind creates a contract-configured binding to ref from clientHost.
func (s *System) Bind(clientHost string, ref naming.InterfaceRef, contract core.Contract) (*channel.Binding, error) {
	env := s.Env(clientHost)
	if it, err := s.Types.LookupInterface(ref.TypeName); err == nil {
		env.Type = it
	}
	return transparency.Bind(ref, contract, env)
}

// ImportAndBind discovers a service through the trader (type-checked
// substitutability, constraint over properties) and binds to the best
// offer under the contract — the canonical ODP client path:
// trade, then bind.
func (s *System) ImportAndBind(clientHost, serviceType, constraintSrc string, contract core.Contract) (*channel.Binding, error) {
	offers, err := s.Directory().Import(trader.ImportRequest{
		ServiceType: serviceType,
		Constraint:  constraintSrc,
		MaxMatches:  1,
		MaxHops:     2,
	})
	if err != nil {
		return nil, err
	}
	if len(offers) == 0 {
		return nil, fmt.Errorf("%w: %s with %q", ErrNoOffers, serviceType, constraintSrc)
	}
	return s.Bind(clientHost, offers[0].Ref, contract)
}
