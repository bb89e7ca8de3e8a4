package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/naming"
)

// LinkProfile describes the behaviour of one direction of a simulated link.
// The zero profile is a perfect link: instantaneous, lossless, exactly-once.
type LinkProfile struct {
	Latency   time.Duration // fixed one-way delay
	Jitter    time.Duration // uniform random extra delay in [0, Jitter)
	DropRate  float64       // probability a frame is silently lost
	DupRate   float64       // probability a frame is delivered twice
	Bandwidth int           // bytes per second; 0 = infinite
}

func (p LinkProfile) perfect() bool {
	return p.Latency == 0 && p.Jitter == 0 && p.DropRate == 0 && p.DupRate == 0 && p.Bandwidth == 0
}

// Stats counts frames at the network level. Partitioned counts the
// subset of drops caused specifically by a partition, so an operator can
// tell loss from isolation.
type Stats struct {
	Sent        uint64
	Delivered   uint64
	Dropped     uint64
	Partitioned uint64
}

// Network is an in-memory simulated network. Endpoints have the form
// "sim://<host>". Behaviour between each ordered host pair is controlled by
// a LinkProfile (default: the network-wide default profile, itself a
// perfect link unless changed). Partitions block all delivery between two
// hosts until healed. All randomness comes from the seed passed to New, so
// runs are reproducible.
type Network struct {
	mu         sync.Mutex
	rng        *rand.Rand
	listeners  map[string]*simListener
	links      map[[2]string]LinkProfile
	partitions map[[2]string]bool
	conns      map[*simConn]struct{} // client ends of established connections
	defaultLP  LinkProfile
	backlog    int // accept backlog per listener; 0 means defaultBacklog

	sent           atomic.Uint64
	delivered      atomic.Uint64
	dropped        atomic.Uint64
	partitionDrops atomic.Uint64
}

func (n *Network) countDropped(partition bool) {
	n.dropped.Add(1)
	if partition {
		n.partitionDrops.Add(1)
	}
}

var _ Transport = (*Network)(nil)

// New returns a simulated network seeded for reproducible loss and jitter.
func New(seed int64) *Network {
	return &Network{
		rng:        rand.New(rand.NewSource(seed)),
		listeners:  make(map[string]*simListener),
		links:      make(map[[2]string]LinkProfile),
		partitions: make(map[[2]string]bool),
		conns:      make(map[*simConn]struct{}),
	}
}

// defaultBacklog is the accept backlog per listener when
// SetAcceptBacklog has not been called — small, like a socket's.
const defaultBacklog = 16

// dialGrace bounds how long a dial waits on a full accept backlog before
// failing with ErrBacklogFull. A server that is merely busy usually
// drains within this; one that has stopped accepting fails the dial
// distinctly instead of hanging it forever.
const dialGrace = 500 * time.Millisecond

// SetAcceptBacklog sets the accept backlog used by listeners opened after
// the call (minimum 1; 0 restores the default of 16). Dials that find the
// backlog full wait a bounded grace period and then fail with
// ErrBacklogFull rather than hanging.
func (n *Network) SetAcceptBacklog(size int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if size < 0 {
		size = 0
	}
	n.backlog = size
}

// SetDefaultLink sets the profile used for host pairs without an explicit
// SetLink.
func (n *Network) SetDefaultLink(p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultLP = p
}

// SetLink sets the profile for frames flowing from host a to host b.
func (n *Network) SetLink(a, b string, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]string{a, b}] = p
}

// ClearLink removes any explicit profile between hosts a and b (both
// directions), restoring the network-wide default. Chaos scripts use it to
// end a latency spike or bandwidth squeeze.
func (n *Network) ClearLink(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, [2]string{a, b})
	delete(n.links, [2]string{b, a})
}

// CrashHost fails a node at the transport level: its listener (if any) is
// closed — subsequent dials fail with ErrNoSuchHost — and every
// established connection with an end at the host is severed, exactly as a
// process crash drops its sockets. The host's link profiles and
// partitions are untouched; a restarted process simply listens again.
func (n *Network) CrashHost(host string) {
	n.mu.Lock()
	l := n.listeners[host]
	var victims []*simConn
	for c := range n.conns {
		if c.local.Address() == host || c.remote.Address() == host {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range victims {
		c.Close()
	}
}

func (n *Network) untrack(c *simConn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// Partition blocks all traffic between hosts a and b (both directions).
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[[2]string{a, b}] = true
	n.partitions[[2]string{b, a}] = true
}

// Heal removes a partition between hosts a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, [2]string{a, b})
	delete(n.partitions, [2]string{b, a})
}

// Stats returns a snapshot of network-wide frame counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:        n.sent.Load(),
		Delivered:   n.delivered.Load(),
		Dropped:     n.dropped.Load(),
		Partitioned: n.partitionDrops.Load(),
	}
}

func (n *Network) linkFor(a, b string) LinkProfile {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.links[[2]string{a, b}]; ok {
		return p
	}
	return n.defaultLP
}

func (n *Network) partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitions[[2]string{a, b}]
}

// From returns a view of the network whose Dial calls originate at the
// given host name, so per-link profiles and partitions apply. Engineering
// nodes use this so that all their traffic is attributed to the node.
func (n *Network) From(host string) Transport {
	return fromTransport{net: n, host: host}
}

type fromTransport struct {
	net  *Network
	host string
}

func (f fromTransport) Dial(ctx context.Context, ep naming.Endpoint) (Conn, error) {
	return f.net.DialFrom(ctx, f.host, ep)
}

func (f fromTransport) Listen(ep naming.Endpoint) (Listener, error) {
	return f.net.Listen(ep)
}

// Listen opens a listener at ep ("sim://host"). One listener per host.
func (n *Network) Listen(ep naming.Endpoint) (Listener, error) {
	host := ep.Address()
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[host]; exists {
		return nil, &addrInUseError{host}
	}
	size := n.backlog
	if size <= 0 {
		size = defaultBacklog
	}
	l := &simListener{
		net:     n,
		ep:      ep,
		backlog: make(chan *simConn, size),
		done:    make(chan struct{}),
	}
	n.listeners[host] = l
	return l, nil
}

type addrInUseError struct{ host string }

func (e *addrInUseError) Error() string { return "netsim: address in use: " + e.host }

// Dial connects to the listener at ep. The local host name is synthesised
// from the dialling goroutine; for link-profile purposes the connection's
// client side is named by DialFrom if used, else "client".
func (n *Network) Dial(ctx context.Context, ep naming.Endpoint) (Conn, error) {
	return n.DialFrom(ctx, "client", ep)
}

// DialFrom connects to ep with an explicit local host name, so per-link
// profiles and partitions apply to the connection.
func (n *Network) DialFrom(ctx context.Context, fromHost string, ep naming.Endpoint) (Conn, error) {
	host := ep.Address()
	n.mu.Lock()
	l, ok := n.listeners[host]
	n.mu.Unlock()
	if !ok {
		return nil, &hostError{host}
	}
	if n.partitioned(fromHost, host) {
		// Connection attempts across a partition hang until the context
		// gives up, like SYNs into a black hole.
		<-ctx.Done()
		return nil, ctx.Err()
	}
	client := newSimConn(n, naming.Endpoint("sim://"+fromHost), ep)
	server := newSimConn(n, ep, naming.Endpoint("sim://"+fromHost))
	client.peer, server.peer = server, client
	select {
	case l.backlog <- server:
		return n.track(client), nil
	case <-l.done:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	// Backlog full: wait a bounded grace for the server to drain it, then
	// fail distinctly instead of hanging the dialler forever.
	grace := time.NewTimer(dialGrace)
	defer grace.Stop()
	select {
	case l.backlog <- server:
		return n.track(client), nil
	case <-l.done:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-grace.C:
		return nil, fmt.Errorf("%w: %s", ErrBacklogFull, ep)
	}
}

// track registers the client end of an established connection so
// CrashHost can sever it; Close untracks.
func (n *Network) track(c *simConn) *simConn {
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
	return c
}

type hostError struct{ host string }

func (e *hostError) Error() string { return "netsim: no listener at endpoint: " + e.host }
func (e *hostError) Is(target error) bool {
	return target == ErrNoSuchHost
}

type simListener struct {
	net     *Network
	ep      naming.Endpoint
	backlog chan *simConn
	done    chan struct{}
	once    sync.Once
}

func (l *simListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *simListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		// Only deregister if the slot still holds this listener: after a
		// crash/restart cycle the address may belong to a fresh listener,
		// which a stale handle's Close must not tear down.
		if l.net.listeners[l.ep.Address()] == l {
			delete(l.net.listeners, l.ep.Address())
		}
		l.net.mu.Unlock()
	})
	return nil
}

func (l *simListener) Endpoint() naming.Endpoint { return l.ep }

// simConn is one end of a simulated connection. Each direction applies the
// sender→receiver link profile. Delivery order is FIFO per direction (like
// a stream transport) even under jitter: frames pass through a single
// delivery goroutine when the link is imperfect.
type simConn struct {
	net    *Network
	local  naming.Endpoint
	remote naming.Endpoint
	peer   *simConn

	mu     sync.Mutex
	queue  [][]byte
	base   [][]byte      // queue's backing array from its start: Recv slices queue forward, and restarts it here once drained
	notify chan struct{} // capacity 1: wake one waiting Recv
	closed bool
	done   chan struct{} // closed with the conn; stops the delivery goroutine

	sendQ    chan delayedFrame // delayed-path queue, created lazily
	sendOnce sync.Once
	txFree   time.Time // when this direction's link finishes serialising what was sent
}

func newSimConn(n *Network, local, remote naming.Endpoint) *simConn {
	return &simConn{
		net:    n,
		local:  local,
		remote: remote,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

func (c *simConn) Send(frame []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	n := c.net
	n.sent.Add(1)
	if n.partitioned(c.local.Address(), c.remote.Address()) {
		n.countDropped(true)
		return nil // black hole
	}
	p := n.linkFor(c.local.Address(), c.remote.Address())
	if p.perfect() {
		// Fast path: copy into a pooled buffer. The receiver owns the
		// frame returned by Recv and may recycle it (package channel puts
		// frames back after decoding), closing the loop: the buffer a
		// client encoded into last call is the one the sim copies into
		// this call.
		c.peer.deliver(append(bufpool.Get(len(frame)), frame...))
		return nil
	}
	cp := append([]byte(nil), frame...)
	// Imperfect link: apply loss/duplication now (seeded RNG), delay in the
	// per-direction delivery goroutine to preserve FIFO order.
	n.mu.Lock()
	drop := n.rng.Float64() < p.DropRate
	dup := n.rng.Float64() < p.DupRate
	var jitter time.Duration
	if p.Jitter > 0 {
		jitter = time.Duration(n.rng.Int63n(int64(p.Jitter)))
	}
	n.mu.Unlock()
	if drop {
		n.countDropped(false)
		return nil
	}
	// The arrival instant is fixed here, at Send: serialisation occupies
	// the link in series (txFree), propagation does not — a link of latency
	// L delays every frame by L, it does not carry one frame per L.
	c.mu.Lock()
	if now := time.Now(); c.txFree.Before(now) {
		c.txFree = now
	}
	if p.Bandwidth > 0 {
		c.txFree = c.txFree.Add(time.Duration(float64(len(cp)) / float64(p.Bandwidth) * float64(time.Second)))
	}
	at := c.txFree.Add(p.Latency + jitter)
	c.mu.Unlock()
	c.sendOnce.Do(func() {
		c.sendQ = make(chan delayedFrame, 1024) // bounded in-flight window for the delayed path
		go c.deliveryLoop()
	})
	deliverOnce := func(b []byte) {
		select {
		case c.sendQ <- delayedFrame{frame: b, at: at}:
		default:
			// Window full: a real link would also drop under overload.
			n.countDropped(false)
		}
	}
	deliverOnce(cp)
	if dup {
		deliverOnce(append([]byte(nil), cp...)) // the receiver owns, and may recycle, each copy
	}
	return nil
}

// delayedFrame is one frame on the delayed path and the instant it
// arrives. The single delivery goroutine sleeps until then, so order is
// FIFO: a frame whose jitter would overtake waits behind its predecessor.
type delayedFrame struct {
	frame []byte
	at    time.Time
}

func (c *simConn) deliveryLoop() {
	for {
		var held bool
		select {
		case d := <-c.sendQ:
			if wait := time.Until(d.at); wait > 0 {
				// Interruptible sleep: a closed conn must release this
				// goroutine even mid-latency-spike, or every flapped link
				// leaks one.
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-c.done:
					t.Stop()
					held = true
				}
			}
			if !held {
				c.peer.deliver(d.frame)
				continue
			}
		case <-c.done:
		}
		// Conn closed: the held frame and anything still queued will never
		// arrive — count them dropped so the stats balance.
		if held {
			c.net.countDropped(false)
		}
		for {
			select {
			case <-c.sendQ:
				c.net.countDropped(false)
			default:
				return
			}
		}
	}
}

func (c *simConn) deliver(frame []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.net.countDropped(false)
		return
	}
	grows := len(c.queue) == cap(c.queue)
	c.queue = append(c.queue, frame)
	if grows {
		c.base = c.queue[:0]
	}
	c.mu.Unlock()
	c.net.delivered.Add(1)
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

func (c *simConn) Recv() ([]byte, error) {
	for {
		c.mu.Lock()
		if len(c.queue) > 0 {
			frame := c.queue[0]
			c.queue[0] = nil // the receiver owns the frame now; the array must not pin it
			c.queue = c.queue[1:]
			more := len(c.queue) > 0
			if !more {
				c.queue = c.base
			}
			c.mu.Unlock()
			if more {
				// Pass the wakeup on: another Recv may be waiting for a
				// frame whose notify signal coalesced with ours.
				c.signal()
			}
			return frame, nil
		}
		if c.closed {
			c.mu.Unlock()
			c.signal() // wake any other blocked Recv so it too sees the close
			return nil, ErrClosed
		}
		c.mu.Unlock()
		<-c.notify
	}
}

func (c *simConn) signal() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

func (c *simConn) Close() error {
	c.closeOneSide()
	if c.peer != nil {
		c.peer.closeOneSide()
	}
	return nil
}

func (c *simConn) closeOneSide() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	c.net.untrack(c)
	select {
	case c.notify <- struct{}{}:
	default:
	}
}
