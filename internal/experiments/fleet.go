// The fleet harness. The tutorial's engineering viewpoint (§6, Fig 5)
// prescribes one structure — node, capsule, cluster, channel — and the
// experiments used to spell it out by hand at every site. This file is
// the one place it is assembled on the simulated network, together with
// the three instruments every scale experiment shares:
//
//   - fleet: one network plus everything brought up on it (servers,
//     bindings, session managers, listeners), torn down by one close();
//   - gate: the single-server queue that gives a node a fixed service
//     capacity, so scaling results describe the routing and not the host;
//   - closedLoop + quantiles: N workers pulling call numbers from one
//     counter, first error aborts, merged latency percentiles;
//   - gapProbe: continuous per-target probing with a last-seen / worst-gap
//     log, a bounded warm-up, and a window reset.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/trader"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

// fleet owns one simulated network and every resource created through
// it. Resources are released in reverse order of creation by close.
type fleet struct {
	net *netsim.Network
	// types is the repository the fleet's trader nodes share.
	types typerepo.Repository

	// mu guards closers: chaos Restart hooks register listeners from the
	// chaos goroutine while the experiment's own goroutine adds nodes.
	mu      sync.Mutex
	closers []func()
}

func newFleet(seed int64) *fleet { return &fleet{net: netsim.New(seed)} }

// own hands the fleet a resource to release at close.
func (f *fleet) own(release func()) {
	f.mu.Lock()
	f.closers = append(f.closers, release)
	f.mu.Unlock()
}

func (f *fleet) close() {
	f.mu.Lock()
	closers := f.closers
	f.closers = nil
	f.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
}

// endpoint opens the two ends of a one-server experiment on the named
// transport: the server's listener and the transport its clients dial
// through — the simulated network ("sim") or real loopback TCP ("tcp").
func (f *fleet) endpoint(transport string) (netsim.Listener, netsim.Transport, error) {
	switch transport {
	case "sim":
		l, err := f.net.Listen("sim://server")
		return l, f.net.From("client"), err
	case "tcp":
		t := netsim.NewTCP()
		l, err := t.Listen("tcp://127.0.0.1:0")
		return l, t, err
	}
	return nil, nil, fmt.Errorf("unknown transport %q", transport)
}

// start serves h under id on listener l — server, registration, accept
// loop — and returns the server with the reference clients bind to.
func (f *fleet) start(l netsim.Listener, cfg channel.ServerConfig, id naming.InterfaceID, it *types.Interface, h channel.Handler) (*channel.Server, naming.InterfaceRef, error) {
	srv := channel.NewServer(l, cfg)
	f.own(func() { srv.Close() })
	if err := srv.Register(id, it, h); err != nil {
		return nil, naming.InterfaceRef{}, err
	}
	srv.Start()
	ref := naming.InterfaceRef{ID: id, Endpoint: l.Endpoint()}
	if it != nil {
		ref.TypeName = it.Name
	}
	return srv, ref, nil
}

// bind opens a client binding that the fleet closes. A config naming
// neither a transport nor a session manager dials from host "client".
func (f *fleet) bind(ref naming.InterfaceRef, cfg channel.BindConfig) (*channel.Binding, error) {
	if cfg.Transport == nil && cfg.Sessions == nil {
		cfg.Transport = f.net.From("client")
	}
	b, err := channel.Bind(ref, cfg)
	if err != nil {
		return nil, err
	}
	f.own(func() { b.Close() })
	return b, nil
}

// sessions creates a session manager over t that the fleet closes.
func (f *fleet) sessions(t netsim.Transport) *channel.SessionManager {
	m := channel.NewSessionManager(t)
	f.own(func() { m.Close() })
	return m
}

// serve is the whole node bring-up with default configuration: listen at
// sim://host, serve h under id, bind to it from host "client".
func (f *fleet) serve(host string, id naming.InterfaceID, it *types.Interface, h channel.Handler) (*channel.Binding, error) {
	l, err := f.net.Listen(naming.Endpoint("sim://" + host))
	if err != nil {
		return nil, err
	}
	_, ref, err := f.start(l, channel.ServerConfig{}, id, it, h)
	if err != nil {
		return nil, err
	}
	return f.bind(ref, channel.BindConfig{})
}

// traderNode serves a leaf trader called name at sim://host — behind g
// when the node models a fixed service capacity — and binds to it.
func (f *fleet) traderNode(host, name string, nonce uint64, g *gate) (*channel.Binding, error) {
	var h channel.Handler = &trader.Servant{T: trader.New(name, f.types)}
	if g != nil {
		h = g.handler(h)
	}
	return f.serve(host, naming.InterfaceID{Nonce: nonce}, nil, h)
}

// addShard brings up trader node s<i> at sim://shard<i> and adds it to
// the front-end's ring — one live rebalance.
func (f *fleet) addShard(fe *trader.ShardedTrader, i int, g *gate) error {
	name := fmt.Sprintf("s%d", i)
	b, err := f.traderNode(fmt.Sprintf("shard%d", i), name, uint64(100+i), g)
	if err != nil {
		return err
	}
	return fe.AddShard(name, trader.NewRemote(b))
}

// groupShard builds a replicated trader shard: one replica per host,
// joined in a ReplicaGroup under their host names. The replicas share
// the trader name "sg": offer ids are minted from the name and a local
// counter, so the group's sequenced update stream yields identical ids
// on every member.
func (f *fleet) groupShard(hosts ...string) (*coordination.ReplicaGroup, error) {
	group := coordination.NewReplicaGroup()
	for r, host := range hosts {
		b, err := f.traderNode(host, "sg", uint64(200+r), nil)
		if err != nil {
			return nil, err
		}
		if err := group.Add(host, b); err != nil {
			return nil, err
		}
	}
	return group, nil
}

// node creates an engineering node at sim://host whose interfaces register
// with reloc (nil: nowhere) and which creates objects of one behaviour.
func (f *fleet) node(host string, reloc engineering.LocationRegistry, behavior string, create func() engineering.Behavior) (*engineering.Node, error) {
	n, err := engineering.NewNode(engineering.NodeConfig{
		ID:        naming.NodeID(host),
		Endpoint:  naming.Endpoint("sim://" + host),
		Transport: f.net.From(host),
		Locations: reloc,
	})
	if err != nil {
		return nil, err
	}
	f.own(func() { _ = n.Close() })
	n.Behaviors().Register(behavior, func(values.Value) (engineering.Behavior, error) {
		return create(), nil
	})
	return n, nil
}

// counterNode is a node whose "counter" behaviour is an e6Counter.
func (f *fleet) counterNode(host string, reloc engineering.LocationRegistry) (*engineering.Node, error) {
	return f.node(host, reloc, "counter", func() engineering.Behavior { return &e6Counter{} })
}

// gate models a node with a fixed service capacity: a single-server
// queue with service time tau. Holding the mutex across the sleep
// serialises requests, so one gated node admits at most 1/tau operations
// per second no matter how many clients pile on — the property that makes
// shard- and replica-count scaling measurable on a small host.
type gate struct {
	mu     sync.Mutex
	tau    time.Duration
	passes atomic.Uint64 // requests admitted so far
}

func (g *gate) pass() {
	g.mu.Lock()
	g.passes.Add(1)
	time.Sleep(g.tau)
	g.mu.Unlock()
}

// handler puts every invocation of inner behind the gate.
func (g *gate) handler(inner channel.Handler) channel.Handler {
	return channel.HandlerFunc(func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
		g.pass()
		return inner.Invoke(ctx, op, args)
	})
}

// gatedRepo is a type-repository authority behind a gate. Only the
// content reads pass through it. Writes are not gated (both E15 modes
// funnel writes to the authority and the measured phase is read-only),
// and Gen is not gated either: the generation fence is an atomic version
// counter, not a content read, so both modes observe it for free and the
// comparison isolates where LookupInterface/IsSubtype traffic lands.
type gatedRepo struct {
	typerepo.Repository
	g *gate
}

func (r *gatedRepo) LookupInterface(name string) (*types.Interface, error) {
	r.g.pass()
	return r.Repository.LookupInterface(name)
}

func (r *gatedRepo) Interfaces() ([]string, error) {
	r.g.pass()
	return r.Repository.Interfaces()
}

func (r *gatedRepo) IsSubtype(sub, super string) (bool, error) {
	r.g.pass()
	return r.Repository.IsSubtype(sub, super)
}

// closedLoop drives fn from workers goroutines that pull call numbers
// 0..calls-1 from one shared counter, so the offered load is always
// `workers` calls in flight however unevenly they complete. The first
// error stops every worker and is returned. It reports the wall-clock
// time of the whole loop and the latency of every successful call.
func closedLoop(workers, calls int, fn func(worker, n int) error) (time.Duration, []time.Duration, error) {
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	lats := make([][]time.Duration, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				n := int(next.Add(1)) - 1
				if n >= calls {
					return
				}
				t0 := time.Now()
				if err := fn(w, n); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return elapsed, nil, firstErr
	}
	all := make([]time.Duration, 0, calls)
	for _, l := range lats {
		all = append(all, l...)
	}
	return elapsed, all, nil
}

// quantiles sorts lats in place and returns its median and 99th
// percentile (zero for an empty sample).
func quantiles(lats []time.Duration) (p50, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], lats[len(lats)*99/100]
}

// gapProbe is the availability instrument: prober goroutines hit a fixed
// set of targets continuously, and the log keeps, per target, when it
// last answered and the worst gap between two consecutive answers. A
// target's blackout over a window is its worst gap since reset.
type gapProbe struct {
	mu       sync.Mutex
	lastSeen []time.Time
	maxGap   []time.Duration
	err      error // first prober error

	hits   atomic.Uint64 // probes that found their target, since reset
	misses atomic.Uint64 // probes that did not, since reset
	stop   atomic.Bool
	wg     sync.WaitGroup
}

func newGapProbe(targets int) *gapProbe {
	return &gapProbe{
		lastSeen: make([]time.Time, targets),
		maxGap:   make([]time.Duration, targets),
	}
}

// record logs the outcome of one probe of target i.
func (p *gapProbe) record(i int, ok bool) {
	if !ok {
		p.misses.Add(1)
		return
	}
	p.hits.Add(1)
	now := time.Now()
	p.mu.Lock()
	if !p.lastSeen[i].IsZero() {
		if gap := now.Sub(p.lastSeen[i]); gap > p.maxGap[i] {
			p.maxGap[i] = gap
		}
	}
	p.lastSeen[i] = now
	p.mu.Unlock()
}

// start launches one prober: it calls probe(k) for k = 0, 1, 2, … until
// halt, logging the target each call reports. A probe error ends that
// prober and is what warm and halt return.
func (p *gapProbe) start(probe func(k int) (target int, ok bool, err error)) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for k := 0; !p.stop.Load(); k++ {
			target, ok, err := probe(k)
			if err != nil {
				p.mu.Lock()
				if p.err == nil {
					p.err = err
				}
				p.mu.Unlock()
				return
			}
			p.record(target, ok)
			runtime.Gosched() // single-CPU hosts: let the measured activity interleave
		}
	}()
}

// halt stops the probers, waits for them and returns the first error any
// of them hit.
func (p *gapProbe) halt() error {
	p.stop.Store(true)
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// warmDeadline is how long the experiments let a probe's warm-up take: on
// a healthy fleet every target answers within milliseconds.
const warmDeadline = 10 * time.Second

// warm waits until every target has answered once, so the gap log covers
// the whole population before the measured window opens. It gives up with
// the first prober error, or after deadline with the targets never seen.
func (p *gapProbe) warm(deadline time.Duration) error {
	var unseen []int
	for end := time.Now().Add(deadline); ; time.Sleep(100 * time.Microsecond) {
		unseen = unseen[:0]
		p.mu.Lock()
		err := p.err
		for i, t := range p.lastSeen {
			if t.IsZero() {
				unseen = append(unseen, i)
			}
		}
		p.mu.Unlock()
		switch {
		case err != nil:
			return fmt.Errorf("gap probe: prober failed during warm-up: %w", err)
		case len(unseen) == 0:
			return nil
		case time.Now().After(end):
			return fmt.Errorf("gap probe: targets %v of %d never answered within %v", unseen, len(p.lastSeen), deadline)
		}
	}
}

// reset opens the measured window: gaps and counts from before now are
// dropped (a gap straddling the reset still counts in full).
func (p *gapProbe) reset() {
	p.mu.Lock()
	for i := range p.maxGap {
		p.maxGap[i] = 0
	}
	p.mu.Unlock()
	p.hits.Store(0)
	p.misses.Store(0)
}

// worst is the longest gap of any target since reset.
func (p *gapProbe) worst() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var w time.Duration
	for _, g := range p.maxGap {
		if g > w {
			w = g
		}
	}
	return w
}

// mean is the mean over targets of each target's worst gap since reset.
func (p *gapProbe) mean() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum time.Duration
	for _, g := range p.maxGap {
		sum += g
	}
	return sum / time.Duration(len(p.maxGap))
}

// darkSince counts the targets that have not answered since t.
func (p *gapProbe) darkSince(t time.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	dark := 0
	for _, seen := range p.lastSeen {
		if seen.Before(t) {
			dark++
		}
	}
	return dark
}
