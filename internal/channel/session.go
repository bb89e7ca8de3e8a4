package channel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/wire"
)

// This file is the session layer of the engineering channel: the protocol
// object of the tutorial's Fig 4, factored out of the binder. A Session is
// one transport connection to one endpoint, shared by every binding the
// client holds to interfaces behind that endpoint; the SessionManager maps
// (Transport, Endpoint) to at most one live Session with reference-counted
// acquire/release and single-flight dialling. Replies are demultiplexed by
// (BindingID, Correlation) — both already carried in every wire header —
// so any number of bindings can interleave interrogations on one
// connection. Failure detection is shared: when the session's read loop
// dies, every pending call on every binding fails at once with
// ErrDisconnected.

// SessionStats is a snapshot of a SessionManager's counters.
type SessionStats struct {
	Open            int    // live sessions right now
	Dials           uint64 // transport dials performed (single-flight: one per establishment)
	Deaths          uint64 // sessions that failed under bindings (shared failover events)
	ProbesSent      uint64 // liveness probes put on the wire
	ProbesCoalesced uint64 // probes satisfied by one already in flight
	// BadFrames counts inbound frames no session of this manager could
	// serve — undecodable, or of a kind no client end accepts — over the
	// manager's lifetime (dead sessions included).
	BadFrames uint64

	// The interactions of every binding multiplexed over this manager: the
	// sums of their BindingStats, plus what a binding does not keep.
	Invocations uint64 // interrogations and announcements started
	Failures    uint64 // interrogations and announcements that returned an error
	Retries     uint64 // failure-transparency retries
	Relocations uint64 // relocation-transparency refreshes that moved a binding
	BackoffNs   uint64 // nanoseconds of retry backoff the policy asked for
}

// SessionManager multiplexes all bindings that share one Transport onto
// per-endpoint sessions. The zero value is not usable; use
// NewSessionManager. All methods are safe for concurrent use.
type SessionManager struct {
	transport netsim.Transport

	mu      sync.Mutex
	entries map[naming.Endpoint]*sessionEntry
	closed  bool

	dials           atomic.Uint64
	deaths          atomic.Uint64
	probesSent      atomic.Uint64
	probesCoalesced atomic.Uint64
	badFrames       atomic.Uint64
	invocations     atomic.Uint64
	failures        atomic.Uint64
	retries         atomic.Uint64
	relocations     atomic.Uint64
	backoffNs       atomic.Uint64

	insp     atomic.Pointer[mgmt.SessionInstruments]
	breakers atomic.Pointer[policy.BreakerSet]
}

// sessionEntry is the manager's per-endpoint slot: the binding reference
// count, the live session if any, and the single-flight dial latch.
type sessionEntry struct {
	refs    int
	sess    *Session
	dialing chan struct{} // non-nil while a dial is in flight; closed when it resolves
}

// NewSessionManager creates a session manager dialling over t.
func NewSessionManager(t netsim.Transport) *SessionManager {
	return &SessionManager{
		transport: t,
		entries:   make(map[naming.Endpoint]*sessionEntry),
	}
}

// Instrument attaches (or, with nil, detaches) management instrumentation.
func (m *SessionManager) Instrument(ins *mgmt.SessionInstruments) {
	m.insp.Store(ins)
}

// SetBreakers shares a circuit-breaker set across every binding
// multiplexed over this manager: all bindings to one endpoint consult
// one breaker, so a node death opens the circuit once for everyone and
// a single half-open probe re-closes it. Nil detaches (no breakers).
func (m *SessionManager) SetBreakers(bs *policy.BreakerSet) {
	m.breakers.Store(bs)
}

// Breakers returns the attached breaker set, or nil.
func (m *SessionManager) Breakers() *policy.BreakerSet {
	return m.breakers.Load()
}

// Stats returns a snapshot of the manager's counters.
func (m *SessionManager) Stats() SessionStats {
	m.mu.Lock()
	open := 0
	for _, e := range m.entries {
		if e.sess != nil {
			open++
		}
	}
	m.mu.Unlock()
	return SessionStats{
		Open:            open,
		Dials:           m.dials.Load(),
		Deaths:          m.deaths.Load(),
		ProbesSent:      m.probesSent.Load(),
		ProbesCoalesced: m.probesCoalesced.Load(),
		BadFrames:       m.badFrames.Load(),
		Invocations:     m.invocations.Load(),
		Failures:        m.failures.Load(),
		Retries:         m.retries.Load(),
		Relocations:     m.relocations.Load(),
		BackoffNs:       m.backoffNs.Load(),
	}
}

// Close tears down every live session. Bindings still attached observe
// ErrDisconnected on their pending calls and ErrClosed on later attempts.
func (m *SessionManager) Close() error {
	m.mu.Lock()
	m.closed = true
	var live []*Session
	for _, e := range m.entries {
		if e.sess != nil {
			live = append(live, e.sess)
		}
	}
	m.mu.Unlock()
	for _, s := range live {
		s.kill(true)
	}
	return nil
}

// attach registers one binding against ep, keeping the endpoint's session
// alive while any binding references it.
func (m *SessionManager) attach(ep naming.Endpoint) {
	m.mu.Lock()
	e := m.entries[ep]
	if e == nil {
		e = &sessionEntry{}
		m.entries[ep] = e
	}
	e.refs++
	m.mu.Unlock()
}

// detach drops one binding's reference to ep; the last reference out
// closes the endpoint's session — at once when the binding closes, and
// once the calls still pending there are answered when it moved away.
func (m *SessionManager) detach(ep naming.Endpoint, moved bool) {
	m.mu.Lock()
	e := m.entries[ep]
	if e == nil {
		m.mu.Unlock()
		return
	}
	e.refs--
	var last *Session
	if e.refs <= 0 {
		last = e.sess
		if e.dialing == nil {
			delete(m.entries, ep)
		}
	}
	m.mu.Unlock()
	switch {
	case last == nil:
	case moved:
		last.retire()
	default:
		last.kill(true)
	}
}

// session returns the live session for ep, dialling it if necessary.
// Concurrent callers single-flight: one dials, the rest wait on the
// latch, and everyone shares the resulting connection.
func (m *SessionManager) session(ctx context.Context, ep naming.Endpoint) (*Session, error) {
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrClosed
		}
		e := m.entries[ep]
		if e == nil {
			// No binding is attached here any more: the requester detached
			// (closed) concurrently. Don't dial a connection nobody owns.
			m.mu.Unlock()
			return nil, ErrClosed
		}
		if e.sess != nil && !e.sess.isClosed() {
			s := e.sess
			m.mu.Unlock()
			return s, nil
		}
		if e.dialing != nil {
			latch := e.dialing
			m.mu.Unlock()
			select {
			case <-latch:
				continue // re-check: adopt the dialled session or its error
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		latch := make(chan struct{})
		e.dialing = latch
		m.mu.Unlock()

		conn, err := m.transport.Dial(ctx, ep)
		if err == nil {
			m.dials.Add(1)
		}

		m.mu.Lock()
		e.dialing = nil
		if m.entries[ep] != e || m.closed {
			// Every binding detached (or the manager closed) mid-dial;
			// nobody wants this connection.
			if m.entries[ep] == e && e.refs <= 0 {
				delete(m.entries, ep)
			}
			m.mu.Unlock()
			close(latch)
			if err == nil {
				conn.Close()
			}
			return nil, ErrClosed
		}
		if err != nil {
			m.mu.Unlock()
			close(latch)
			// Both sentinels stay visible to errors.Is: ErrDisconnected for
			// the channel layer, and the transport's cause (ErrNoSuchHost,
			// ErrBacklogFull, …) for the error taxonomy.
			return nil, fmt.Errorf("%w: dial %s: %w", ErrDisconnected, ep, err)
		}
		s := newSession(m, ep, conn)
		e.sess = s
		m.mu.Unlock()
		close(latch)
		go s.readLoop()
		return s, nil
	}
}

// peek returns the live session for ep without dialling, or nil.
func (m *SessionManager) peek(ep naming.Endpoint) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[ep]; e != nil {
		return e.sess
	}
	return nil
}

// sessionDied is the read loop's exit notification: unpublish the session
// and account for the shared failover.
func (m *SessionManager) sessionDied(s *Session, graceful bool) {
	m.mu.Lock()
	refs := 0
	if e := m.entries[s.ep]; e != nil && e.sess == s {
		e.sess = nil
		refs = e.refs
		if e.refs <= 0 && e.dialing == nil {
			delete(m.entries, s.ep)
		}
	}
	m.mu.Unlock()
	if !graceful {
		m.deaths.Add(1)
	}
	if ins := m.insp.Load(); ins != nil {
		ins.BindingsAtDeath.Observe(uint64(refs))
	}
}

// ---------------------------------------------------------------------------

// pendKey is the session demux key. Correlations are allocated per
// binding, so the pair is unique across every binding on the session.
type pendKey struct {
	binding uint64
	correl  uint64
}

// probeFlight is the latch for one in-flight liveness probe shared by all
// bindings on the session.
type probeFlight struct {
	done chan struct{}
	err  error
}

// Session is one shared transport connection: one conn, one read loop,
// one demux table for every binding multiplexed over it, and one sender
// goroutine that drains the frame queue into vectored writes.
type Session struct {
	mgr  *SessionManager
	ep   naming.Endpoint
	conn netsim.Conn
	q    *frameQueue

	mu       sync.Mutex
	pending  map[pendKey]chan *wire.Message
	grants   map[pendKey]*grantSink
	closed   bool
	graceful bool
	retired  bool // no binding is attached: close once nothing is pending

	lastProbe atomic.Int64 // unix nanos of the last completed probe

	probeMu sync.Mutex
	probe   *probeFlight
}

func newSession(m *SessionManager, ep naming.Endpoint, conn netsim.Conn) *Session {
	s := &Session{
		mgr:     m,
		ep:      ep,
		conn:    conn,
		pending: make(map[pendKey]chan *wire.Message),
		grants:  make(map[pendKey]*grantSink),
	}
	var bi batchInstruments
	if ins := m.insp.Load(); ins != nil {
		bi = batchInstruments{
			framesPerWrite: ins.FramesPerWrite,
			batchBytes:     ins.BatchBytes,
			queueDepth:     ins.SendQueueDepth,
		}
	}
	s.q = newFrameQueue(conn, sendQueueBytes, sendBatchBytes, bi,
		func(error) { s.kill(false) })
	return s
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// waiterPool recycles the one-shot reply channels of register. The
// ownership protocol makes pooling safe: whichever party removes a key
// from the pending map sends exactly one value on its channel (a reply,
// or nil at session death), except the registering caller itself, which
// on unregister-success owns a channel nothing will ever send on. release
// drains the one possible value before pooling, so a recycled channel is
// always empty.
var waiterPool = sync.Pool{New: func() any { return make(chan *wire.Message, 1) }}

// release drains and recycles a reply channel once its interrogation is
// over and the caller is certain no further send can target it (its key
// is out of the pending map).
func release(ch chan *wire.Message) {
	select {
	case m := <-ch:
		if m != nil {
			wire.PutMessage(m)
		}
	default:
	}
	waiterPool.Put(ch)
}

// grantSink is the session-side delivery point for one flow stream's
// credit grants: the read loop routes inbound CreditGrant frames keyed by
// (binding, stream id) to onGrant, and session death fires onDead once so
// a producer blocked at zero credit wakes with ErrStreamClosed instead of
// hanging on a session that will never grant again. Both callbacks run on
// the session's read-loop goroutine and must not block.
type grantSink struct {
	onGrant func(cumElems, cumBytes uint64)
	onDead  func(err error)
}

// registerGrants claims the grant demux slot for one flow stream.
func (s *Session) registerGrants(binding, stream uint64, sink *grantSink) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStreamClosed
	}
	s.grants[pendKey{binding, stream}] = sink
	s.mu.Unlock()
	return nil
}

// unregisterGrants drops a stream's grant slot (stream close). After it
// returns no callback will fire for the stream again.
func (s *Session) unregisterGrants(binding, stream uint64) {
	s.mu.Lock()
	delete(s.grants, pendKey{binding, stream})
	s.mu.Unlock()
}

// register claims the demux slot for one interrogation. The returned
// channel receives exactly one value: the reply, or nil when the session
// dies first. The caller must hand the channel back with release (after
// unregistering if no value was received).
func (s *Session) register(binding, correl uint64) (chan *wire.Message, error) {
	ch := waiterPool.Get().(chan *wire.Message)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		waiterPool.Put(ch)
		return nil, ErrDisconnected
	}
	s.pending[pendKey{binding, correl}] = ch
	s.mu.Unlock()
	return ch, nil
}

// unregister abandons an interrogation (timeout, cancellation). It
// reports whether the slot was still claimed: true means no send will
// ever reach the channel; false means a reply or death notification was
// already (or is being) delivered and the caller must receive it before
// releasing the channel.
func (s *Session) unregister(binding, correl uint64) bool {
	s.mu.Lock()
	k := pendKey{binding, correl}
	_, ok := s.pending[k]
	if ok {
		delete(s.pending, k)
	}
	idle := s.retired && len(s.pending) == 0
	s.mu.Unlock()
	if idle {
		s.kill(true)
	}
	return ok
}

// abandon gives up on an interrogation and reclaims its reply channel.
// If the slot was still claimed, no send can reach the channel and it
// pools immediately; otherwise the delivering side removed the key first,
// so exactly one value is on its way — wait for it (the send trails the
// map delete by at most a few instructions) so a pooled channel is always
// empty.
func (s *Session) abandon(binding, correl uint64, ch chan *wire.Message) {
	if s.unregister(binding, correl) {
		release(ch)
		return
	}
	if m := <-ch; m != nil {
		wire.PutMessage(m)
	}
	waiterPool.Put(ch)
}

// send transmits one frame, taking ownership of it: the buffer is
// recycled by the send path whatever the outcome, so callers must not
// touch it after the call. The frame is queued to the session's sender
// goroutine — many bindings' frames coalesce into one vectored write —
// and a connection failure surfaces either here (as the sender's sticky
// error) or on the reply channel; the failed write has already killed the
// session, so every sibling binding fails over together.
func (s *Session) send(frame []byte) error { return s.q.enqueue(frame) }

// flushSends blocks until every frame handed to send so far is on the
// wire (one-way interactions use it for group commit: enqueue then flush
// keeps write errors observable without a write per announcement).
func (s *Session) flushSends() error { return s.q.flush() }

// retire closes the session once no interrogation waits on it.
func (s *Session) retire() {
	s.mu.Lock()
	s.retired = true
	idle := len(s.pending) == 0
	s.mu.Unlock()
	if idle {
		s.kill(true)
	}
}

// kill tears the session down; the read loop's exit performs the
// cleanup. graceful marks an orderly release (last binding out, manager
// close) rather than a failure, so it is not counted as a reconnect.
func (s *Session) kill(graceful bool) {
	s.mu.Lock()
	if graceful && !s.closed {
		s.graceful = true
	}
	s.mu.Unlock()
	s.conn.Close()
}

// readLoop demultiplexes inbound replies by (BindingID, Correlation)
// until the connection dies, then fails every pending call on every
// binding at once — the shared failure detector.
func (s *Session) readLoop() {
	for {
		frame, err := s.conn.Recv()
		if err != nil {
			break
		}
		m, err := wire.Decode(frame)
		// Decode copies every escaping payload out of the frame, so the
		// buffer can be recycled immediately, whatever the outcome.
		wire.PutFrame(frame)
		if err != nil {
			// A corrupt frame fails only its own call, by that call's
			// timeout; the session and its other bindings keep going.
			s.mgr.badFrames.Add(1)
			continue
		}
		switch m.Kind {
		case wire.Reply, wire.ErrReply, wire.ProbeAck:
			k := pendKey{m.BindingID, m.Correlation}
			s.mu.Lock()
			ch, ok := s.pending[k]
			if ok {
				delete(s.pending, k)
			}
			idle := s.retired && len(s.pending) == 0
			s.mu.Unlock()
			if ok {
				// Removing the key made this goroutine the channel's sole
				// sender; cap 1 means the send cannot block.
				ch <- m
			} else {
				wire.PutMessage(m) // late or unsolicited; nobody will read it
			}
			if idle {
				s.kill(true)
			}
		case wire.CreditGrant:
			// The streaming back-channel: route the grant to its stream's
			// sink. Grants for unknown streams (late, or the stream closed)
			// are dropped — cumulative credit makes the next grant subsume
			// them.
			s.mu.Lock()
			g := s.grants[pendKey{m.BindingID, m.Correlation}]
			s.mu.Unlock()
			if g != nil {
				g.onGrant(m.Seq, m.Epoch)
			}
			wire.PutMessage(m)
		default:
			// Client ends do not accept requests.
			s.mgr.badFrames.Add(1)
			wire.PutMessage(m)
		}
	}
	s.mu.Lock()
	s.closed = true
	stranded := s.pending
	s.pending = nil
	strandedGrants := s.grants
	s.grants = nil
	graceful := s.graceful
	s.mu.Unlock()
	// Account the death before waking anyone: a caller that observes
	// ErrDisconnected must also observe the death in SessionStats.
	s.mgr.sessionDied(s, graceful)
	// The map swap removed every key at once, making this goroutine the
	// sole sender for each stranded channel: nil is the death notification
	// (channels are pooled, so they are never closed).
	for _, ch := range stranded {
		ch <- nil
	}
	// Streams die with their session: wake every producer blocked on
	// credit so it observes ErrStreamClosed rather than waiting for a
	// grant that can never arrive.
	for _, g := range strandedGrants {
		if g.onDead != nil {
			g.onDead(ErrStreamClosed)
		}
	}
	s.q.close() // conn is dead; the sender drains by failing fast
}

// probeShared coalesces liveness probes: however many bindings probe a
// session concurrently, one Probe frame goes on the wire and everyone
// shares its outcome. b supplies the wire identity (binding id, seq,
// correlation) for the probe that is actually sent.
func (s *Session) probeShared(ctx context.Context, b *Binding) error {
	for {
		s.probeMu.Lock()
		if f := s.probe; f != nil {
			s.probeMu.Unlock()
			s.mgr.probesCoalesced.Add(1)
			select {
			case <-f.done:
				// If the probe owner's context (not ours) was cancelled,
				// the shared result says nothing about liveness; retry as
				// the new owner.
				if f.err != nil && ctx.Err() == nil &&
					(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
					continue
				}
				return f.err
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		f := &probeFlight{done: make(chan struct{})}
		s.probe = f
		s.probeMu.Unlock()

		// The heartbeat is an ordinary round trip of the owning binding, so
		// a secured channel probes like it invokes.
		s.mgr.probesSent.Add(1)
		m := b.message(wire.Probe, b.Ref(), b.nextSeq.Add(1), 0, "", nil)
		ack, err := b.roundTrip(ctx, s, m)
		wire.PutMessage(m)
		if err == nil {
			wire.PutMessage(ack)
			s.lastProbe.Store(time.Now().UnixNano())
		}

		s.probeMu.Lock()
		s.probe = nil
		s.probeMu.Unlock()
		f.err = err
		close(f.done)
		return err
	}
}
