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
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

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

// runtimeStats is what the Go runtime counts for the whole process, so an
// operator can see the allocation rate of a live node: the heap objects
// and bytes allocated so far (freed ones included; the runtime adds a
// small object when its per-P cache hands back the span it came from, so
// the counts lag a little), the GC cycles completed, and the goroutines
// live now (a level, so a gauge).
type runtimeStats struct {
	HeapAllocs, HeapAllocBytes, GCCycles uint64
	Goroutines                           int64
}

var runtimeMetrics = [...]string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/goroutines:goroutines",
}

// readRuntime reads runtimeStats from runtime/metrics. Management calls it
// only when it dumps.
func readRuntime() runtimeStats {
	var s [len(runtimeMetrics)]metrics.Sample
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return runtimeStats{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), int64(s[3].Value.Uint64())}
}

// Facade error sentinels.
var (
	ErrNodeExists = errors.New("odp: node already exists")
	ErrNoSuchNode = errors.New("odp: no such node")
	ErrNoOffers   = errors.New("odp: no matching offers")
)

// Bus topics the facade publishes on: the control-plane event streams a
// sharded bus spreads across shards.
const (
	// TopicDeployed announces each successful Deploy.
	TopicDeployed = "odp.deployed"
	// TopicBreaker carries circuit-breaker transitions: a record
	// {host, endpoint, state} published when a breaker trips open or
	// re-closes.
	TopicBreaker = "policy.breaker"
	// TopicLiveness carries the failure detector's liveness transitions:
	// records minted by health.Transition.ToValue, decoded with
	// health.TransitionFromValue.
	TopicLiveness = health.EventTopic
)

// Config is the whole configuration of a System, read once by New: every
// mode is a field, so there is no order to switch modes on in. The zero
// Config is the plain system every example runs.
type Config struct {
	// Name names the trading function and its shards, whose names prefix
	// the offer ids issued; it must be unique within a federation. Zero
	// means "trader".
	Name string
	// Listen is where the system's nodes listen; its scheme selects the
	// transport ("tcp://127.0.0.1:0": a loopback socket per node). Zero
	// means the simulator, node <n> listening at sim://<n>.
	Listen naming.Endpoint
	// Seed seeds the simulated network. Ignored off the simulator.
	Seed int64

	// Management instruments the network, trader, bus, every session
	// manager and every node; each node then also serves the Management
	// interface, registered with the relocator like any other. Zero means
	// no instrumentation at all.
	Management bool
	// Breakers gives each client host one shared circuit-breaker set,
	// reported under policy.<host>.breaker.* and, unless OnTransition is
	// set, published on TopicBreaker. Nil means none; a pointer to the
	// zero BreakerConfig means the defaults.
	Breakers *policy.BreakerConfig
	// TraderShards partitions the trading function's front-end over that
	// many local shards, named "<Name>-0"... Zero means one shard.
	TraderShards int
	// BusShards partitions the event bus by topic over that many shards
	// ("b0"...). Zero means one shard, named "bus".
	BusShards int
	// TypeReplicas puts that many gen-fenced read replicas in front of
	// the type repository (a *typerepo.Replicated). Zero means none.
	TypeReplicas int
	// Health starts the failure detector; transitions are published on
	// TopicLiveness (and still reach its own OnTransition) and reported
	// under health.<endpoint>.*. Nil means none, and WatchNode fails.
	Health *health.Config
	// Recovery starts the recovery controller, fed from TopicLiveness;
	// install plans on Recovery(). Breakers does not gate it — recovery
	// and invocation gating are separate decisions. Nil means none.
	Recovery *health.ControllerConfig
}

// System is one ODP system: the shared infrastructure objects and the
// nodes deployed into it. Everything above mu is written once, by New,
// and read without a lock.
type System struct {
	// Net is the simulated network, nil off the simulator.
	Net       *netsim.Network
	Relocator *relocator.Relocator
	Types     typerepo.Repository
	// Directory is the trading function Deploy exports to and
	// ImportAndBind imports from, and the one federation links are set on.
	Directory *trader.ShardedTrader
	Bus       *coordination.Bus

	cfg      Config
	cache    *relocator.Cache // Env's Locator
	mgmt     *mgmt.Management
	health   *health.Detector
	recovery *health.Controller

	mu    sync.Mutex
	nodes map[string]*engineering.Node
	// sessions caches one SessionManager per client host, so every
	// binding a host opens — across Env/Bind/ImportAndBind calls and
	// replica groups — multiplexes over one transport session per peer
	// node instead of one connection per binding.
	sessions map[string]*channel.SessionManager
	// closers undo New, last first: detector, then the controller and its
	// subscription.
	closers []func()
}

// New builds a system from cfg in the one order that works: the type
// front-end, the trader reading through it, the bus, the relocation
// cache, the bus's subscriber (the recovery controller), then the
// detector publishing to it. The management domain comes first and its
// bundles are nil-safe, so each piece is instrumented — its Stats read
// through, its histograms and tracer attached — as it is built, and a
// mode that is off costs nothing.
func New(cfg Config) (*System, error) {
	if min(cfg.TraderShards, cfg.BusShards, cfg.TypeReplicas) < 0 {
		return nil, errors.New("odp: Config shard and replica counts must not be negative")
	}
	if cfg.Name == "" {
		cfg.Name = "trader"
	}
	s := &System{
		Relocator: relocator.New(),
		Types:     typerepo.New(),
		cfg:       cfg,
		nodes:     make(map[string]*engineering.Node),
		sessions:  make(map[string]*channel.SessionManager),
	}
	if cfg.Management {
		s.mgmt = mgmt.New()
	}
	mgmt.Read(s.mgmt, "runtime.", readRuntime)
	if scheme := cfg.Listen.Scheme(); scheme == "" || scheme == "sim" {
		sim := netsim.New(cfg.Seed)
		mgmt.Read(s.mgmt, "net.sim.", sim.Stats)
		s.Net = sim
	}
	mgmt.Read(s.mgmt, "relocator.", s.Relocator.Stats)

	if cfg.TypeReplicas > 0 {
		rep := typerepo.NewReplicated(s.Types, cfg.TypeReplicas)
		mgmt.Read(s.mgmt, "typerepo.", rep.Stats)
		s.Types = rep
	}
	s.Directory = trader.NewSharded(cfg.Name, s.Types, 0)
	s.Directory.Instrument(s.mgmt.TraderShards(cfg.Name))
	mgmt.Read(s.mgmt, "trader."+cfg.Name+".", s.Directory.ShardStats)
	mgmt.Read(s.mgmt, "trader."+cfg.Name+".shard.", s.Directory.LegStats)
	for i := 0; i < max(1, cfg.TraderShards); i++ {
		// Named after the system, so federated systems mint distinct ids.
		name := fmt.Sprintf("%s-%d", cfg.Name, i)
		if err := s.Directory.AddShard(name, trader.New(name, s.Types)); err != nil {
			return nil, err
		}
	}
	s.Bus = coordination.NewShardedBus(cfg.BusShards)
	s.Bus.Instrument(s.mgmt)

	// Bindings locate through the client-side cache. Nothing pushes moves
	// into it: a binding holding staleness evidence invalidates its entry
	// and asks again (channel.LocationInvalidator), the one rule that works
	// for a remote authority too.
	s.cache = relocator.NewCache(s.Relocator, 0)
	mgmt.Read(s.mgmt, "relocator.cache.", s.cache.Stats)
	// The self-healing layer (tutorial §9: failure transparency is a
	// prescription, not a default). Sensing and acting are decoupled
	// through the bus: the detector publishes on TopicLiveness, and the
	// controller subscribes there. Delivery is synchronous, which suits
	// Handle: it never blocks and never drops a verdict.
	if cfg.Recovery != nil {
		ctl := health.NewController(*cfg.Recovery)
		mgmt.Read(s.mgmt, "recovery.", ctl.Stats)
		s.recovery = ctl
		s.closers = append(s.closers, ctl.Close, s.Bus.Subscribe(TopicLiveness, func(ev coordination.Event) {
			if t, err := health.TransitionFromValue(ev.Payload); err == nil {
				ctl.Handle(t)
			}
		}))
	}
	if cfg.Health != nil {
		hc := *cfg.Health
		user := hc.OnTransition
		hc.OnTransition = func(t health.Transition) {
			s.Bus.Publish(TopicLiveness, t.ToValue())
			if user != nil {
				user(t)
			}
		}
		s.health = health.New(hc)
		mgmt.Read(s.mgmt, "health.", s.health.Stats)
		s.closers = append(s.closers, s.health.Close)
	}
	return s, nil
}

// NewSystem is New(Config{Seed: seed}): the plain system on a seeded
// simulated network, which cannot fail to build.
func NewSystem(seed int64) *System {
	s, err := New(Config{Seed: seed})
	if err != nil {
		panic(err)
	}
	return s
}

// transport routes host's dials and listens by endpoint scheme: tcp is
// real sockets; sim, on the simulator, is the seeded network with host as
// the calling end, so link profiles and partitions apply. The only place
// the network is dereferenced.
func (s *System) transport(host string) *netsim.Registry {
	r := netsim.NewRegistry()
	r.Register("tcp", netsim.NewTCP())
	if s.Net != nil {
		r.Register("sim", s.Net.From(host))
	}
	return r
}

// newBreakers mints host's breaker set. Transitions are published keyed
// by the host whose set tripped; the hook runs outside breaker locks, so
// slow consumers should subscribe with a bounded queue.
func (s *System) newBreakers(host string) *policy.BreakerSet {
	cfg := *s.cfg.Breakers
	if cfg.OnTransition == nil {
		cfg.OnTransition = func(key string, to policy.State) {
			s.Bus.Publish(TopicBreaker, values.Record(
				values.F("host", values.Str(host)),
				values.F("endpoint", values.Str(key)),
				values.F("state", values.Str(to.String())),
			))
		}
	}
	bs := policy.NewBreakerSet(cfg)
	mgmt.Read(s.mgmt, "policy."+host+".breaker.", bs.Stats)
	return bs
}

// EnableRelocationCache returns RelocationCache(); the capacity is
// ignored. It stays exported only because the frozen bench/bank.go calls
// it on a NewSystem; the next benchmark PR drops the call and this method
// (the netsim.Flusher precedent).
func (s *System) EnableRelocationCache(capacity int) *relocator.Cache { return s.cache }

// RelocationCache returns the client-side relocation cache every binding
// Env configures locates through (1,024 records, relocator.NewCache's
// default).
func (s *System) RelocationCache() *relocator.Cache { return s.cache }

// Mgmt returns the system's management domain, nil when disabled.
func (s *System) Mgmt() *mgmt.Management { return s.mgmt }

// Detector returns the system failure detector, nil when disabled. Watch
// nodes with WatchNode (transport-level dial probes) or Detector().Watch
// for custom probes through the full channel stack.
func (s *System) Detector() *health.Detector { return s.health }

// Recovery returns the recovery controller, nil when disabled. Plans
// (per endpoint or fallback) are installed on it by the caller.
func (s *System) Recovery() *health.Controller { return s.recovery }

// SessionsFor returns the client host's shared session manager, creating
// it on first use. All of the host's bindings multiplex over it: one
// connection, read loop and send queue per peer node — and, with
// Config.Breakers, one breaker set, so every binding the host holds to a
// dead endpoint fails fast together and shares the half-open probe.
func (s *System) SessionsFor(clientHost string) *channel.SessionManager {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.sessions[clientHost]
	if !ok {
		sm = channel.NewSessionManager(s.transport(clientHost))
		sm.Instrument(s.mgmt.Sessions(clientHost))
		mgmt.Read(s.mgmt, "session."+clientHost+".", sm.Stats)
		if s.cfg.Breakers != nil {
			sm.SetBreakers(s.newBreakers(clientHost))
		}
		s.sessions[clientHost] = sm
	}
	return sm
}

// CreateNode starts an engineering node at the system's listen endpoint.
// With Config.Management the node also serves the Management interface —
// an ordinary operational interface, reached through the same channel
// machinery it observes.
func (s *System) CreateNode(name string) (*engineering.Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.nodes[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrNodeExists, name)
	}
	ep := s.cfg.Listen
	if ep == "" {
		ep = naming.Endpoint("sim://" + name)
	}
	n, err := engineering.NewNode(engineering.NodeConfig{
		ID:        naming.NodeID(name),
		Endpoint:  ep,
		Transport: s.transport(name),
		Locations: s.Relocator,
		Server: channel.ServerConfig{
			ReplayGuard: true,
			Instruments: s.mgmt.ChannelServer(name),
		},
	})
	if err != nil {
		return nil, err
	}
	if s.mgmt != nil {
		if _, err := n.RegisterServant(mgmt.InterfaceType(), channel.HandlerFunc(s.mgmt.ServeInvoke)); err != nil {
			n.Close()
			return nil, err
		}
	}
	mgmt.Read(s.mgmt, "channel.server."+name+".", n.Server().Stats)
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

// WatchNode puts a node of this system under the failure detector with a
// transport-level dial probe of the node's endpoint: a crashed node fails
// the probe immediately, a partitioned one hangs it into the adaptive
// timeout. The probe dials from the synthetic host "healthd", so chaos
// scripts can partition the monitor itself.
func (s *System) WatchNode(name string) error {
	if s.health == nil {
		return fmt.Errorf("odp: WatchNode %q: Config.Health is not set", name)
	}
	node, err := s.Node(name)
	if err != nil {
		return err
	}
	ep, tr := node.Endpoint(), s.transport("healthd")
	return s.health.Watch(name, func(ctx context.Context) (time.Duration, error) {
		start := time.Now()
		conn, err := tr.Dial(ctx, ep)
		if err != nil {
			return 0, err
		}
		conn.Close()
		return time.Since(start), nil
	})
}

// Close stops the detector (sensing first, so no new transitions), then
// the controller and the bus subscriptions, then every session manager
// and node.
func (s *System) Close() error {
	s.mu.Lock()
	nodes, managers, closers := s.nodes, s.sessions, s.closers
	s.nodes = map[string]*engineering.Node{}
	s.sessions = map[string]*channel.SessionManager{}
	s.closers = nil
	s.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
	for _, sm := range managers {
		_ = sm.Close()
	}
	var first error
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
		offerID, err := s.Directory.Export(decl.Type.Name, ref, props)
		if err != nil {
			return nil, err
		}
		dep.Offers[decl.Type.Name] = offerID
	}
	s.Bus.Publish(TopicDeployed, values.Record(
		values.F("template", values.Str(tmpl.Name)),
		values.F("node", values.Str(string(node.ID()))),
	))
	return dep, nil
}

// Env builds the transparency environment for a client at the given
// host: the host's session manager, which dials through the host's
// scheme-routed transport, and the relocation cache.
func (s *System) Env(clientHost string) transparency.Env {
	return transparency.Env{
		Sessions:    s.SessionsFor(clientHost),
		Locator:     s.cache,
		Instruments: s.mgmt.ChannelClient(clientHost),
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
	offers, err := s.Directory.Import(trader.ImportRequest{
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
