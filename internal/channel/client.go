package channel

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mathrand "math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

// newBindingID draws a binding id from the OS entropy source. The global
// math/rand generator used previously is deterministic per process start
// in older Go releases, so two processes (or a process restarted within
// the same tick) could mint colliding binding ids and poison each other's
// replay-guard state at a shared server. crypto/rand cannot collide that
// way; math/rand/v2's per-process random seed is the fallback if the
// entropy source fails.
func newBindingID() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		return binary.BigEndian.Uint64(b[:])
	}
	return mathrand.Uint64()
}

// BindConfig configures the client end of a channel. Transport is
// required unless Sessions is supplied; everything else has working
// defaults. The set of stages, the presence of a Locator and the recovery
// Policy are normally decided by the transparency configurator from an
// environment contract.
type BindConfig struct {
	// Transport dials the server's endpoint. Required unless Sessions is
	// set (a manager carries its own transport).
	Transport netsim.Transport
	// Sessions multiplexes this binding over shared per-endpoint
	// sessions: every binding handed the same manager shares one
	// connection, read loop, failure detector and heartbeat per remote
	// endpoint. Nil gives the binding a private manager — the same code
	// path, with sessions degenerating to one per binding.
	Sessions *SessionManager
	// Codec selects the transfer representation (default: wire.Canonical).
	Codec wire.Codec
	// Stages are the stub/binder components of this channel end, applied
	// outermost-first on outbound messages.
	Stages []Stage
	// Type enables client-side type checking of invocations (the client
	// stub's application knowledge). Optional.
	Type *types.Interface
	// Locator enables relocation transparency: when the server end reports
	// the interface unknown, or the connection fails, the binding re-resolves
	// the location and replays the interaction. Optional.
	Locator Locator
	// Policy is the recovery policy — failure transparency: how many
	// attempts an interaction gets after a transport failure or attempt
	// timeout, the per-attempt timeout (which also bounds Probe), one
	// deadline budget shared by all attempts and relocations, and seeded
	// exponential backoff between retries. The zero value is one attempt
	// bounded only by the caller's context.
	Policy policy.RetryPolicy
	// MaxInFlight bounds the interrogations this binding may have
	// outstanding at once. Zero means unlimited — a binding pipelines any
	// number of concurrent Invokes onto its session. With a bound, an
	// Invoke beyond it either queues for a slot (the default, honouring the
	// caller's context) or fails fast with ErrTooManyInFlight when FailFast
	// is set.
	MaxInFlight int
	// FailFast makes an Invoke beyond MaxInFlight return
	// ErrTooManyInFlight immediately instead of waiting for a slot.
	// Ignored when MaxInFlight is zero.
	FailFast bool
	// Instruments enables management instrumentation of this channel end:
	// stub/binder/transport spans and the invocation latency histogram.
	// Nil disables it at the cost of a nil check per invocation. (The
	// counts are the session manager's SessionStats.)
	Instruments *mgmt.ChannelClientInstruments
}

// BindingStats counts channel events at the client end.
type BindingStats struct {
	Invocations uint64
	Retries     uint64
	Relocations uint64
	// Reconnects counts session changes observed by this binding: the
	// first session it joins, plus one per shared-session failover.
	Reconnects uint64
	// OneWayQueued counts announcements, flow elements and signals this
	// binding handed to the session's batched send queue (each is still
	// flushed before the call returns, so send errors stay observable).
	OneWayQueued uint64
	// LastProbe is when the binding's current session last completed a
	// liveness probe (zero if never, or if the session is gone). Probes
	// are coalesced per session, so this may have been paid for by a
	// sibling binding.
	LastProbe time.Time
}

// Binding is the client end of an engineering channel, bound to one remote
// interface: the stub and binder of the tutorial's Fig 4. Transport is
// delegated to a shared per-endpoint Session (the protocol object), so a
// binding holds no connection of its own — sequencing, replay identity,
// retries and the location cache stay here, per binding; the wire moves
// down a layer. It is safe for concurrent use; interrogations in flight
// are correlated by id, so a binding multiplexes any number of goroutines
// onto its session.
type Binding struct {
	cfg       BindConfig
	bindingID uint64
	sessions  *SessionManager
	ownSess   bool // manager is private to this binding; Close closes it

	nextCorrel atomic.Uint64
	nextSeq    atomic.Uint64
	// order is held from drawing a call's correlation id to queueing its
	// frame, so the calls of one binding reach the server in id order
	// however many goroutines pipeline on it. Without it a caller
	// descheduled between the two lets its siblings run arbitrarily far
	// ahead, and the server's replay window (which then only has to absorb
	// retries) would take the late frame for a replay.
	order sync.Mutex

	// inflight is the MaxInFlight semaphore (nil when unbounded): one
	// buffered slot per permitted outstanding interrogation.
	inflight chan struct{}

	invocations  atomic.Uint64
	retries      atomic.Uint64
	relocations  atomic.Uint64
	reconnects   atomic.Uint64
	oneWayQueued atomic.Uint64

	mu         sync.Mutex
	ref        naming.InterfaceRef
	attached   bool
	attachedEP naming.Endpoint
	lastSess   *Session
	closed     bool
}

// Bind creates a binding to the interface named by ref. The session is
// established lazily on first use, so binding to a not-yet-started server
// is fine as long as it is up by the first invocation.
func Bind(ref naming.InterfaceRef, cfg BindConfig) (*Binding, error) {
	if cfg.Transport == nil && cfg.Sessions == nil {
		return nil, fmt.Errorf("channel: BindConfig.Transport or Sessions is required")
	}
	if ref.IsZero() {
		return nil, fmt.Errorf("channel: cannot bind to zero reference")
	}
	if cfg.Codec == nil {
		cfg.Codec = wire.Canonical
	}
	b := &Binding{
		cfg:       cfg,
		bindingID: newBindingID(),
		ref:       ref,
	}
	if cfg.MaxInFlight > 0 {
		b.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.Sessions != nil {
		b.sessions = cfg.Sessions
	} else {
		b.sessions = NewSessionManager(cfg.Transport)
		b.ownSess = true
	}
	return b, nil
}

// Ref returns the binding's current view of the interface reference
// (endpoint and epoch may advance as relocations are observed).
func (b *Binding) Ref() naming.InterfaceRef {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ref
}

// Sessions returns the session manager this binding multiplexes over —
// its own private one, or the shared manager supplied at Bind.
func (b *Binding) Sessions() *SessionManager { return b.sessions }

// Stats returns a snapshot of the binding's counters.
func (b *Binding) Stats() BindingStats {
	st := BindingStats{
		Invocations:  b.invocations.Load(),
		Retries:      b.retries.Load(),
		Relocations:  b.relocations.Load(),
		Reconnects:   b.reconnects.Load(),
		OneWayQueued: b.oneWayQueued.Load(),
	}
	b.mu.Lock()
	attached, ep := b.attached, b.attachedEP
	b.mu.Unlock()
	if attached {
		if s := b.sessions.peek(ep); s != nil {
			if ns := s.lastProbe.Load(); ns > 0 {
				st.LastProbe = time.Unix(0, ns)
			}
		}
	}
	return st
}

// Close detaches the binding from its session (the last binding out
// closes the session, failing anything still pending on it with
// ErrDisconnected) and fails later use with ErrClosed.
func (b *Binding) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	attached, ep := b.attached, b.attachedEP
	b.attached = false
	b.mu.Unlock()
	if attached {
		b.sessions.detach(ep, false)
	}
	if b.ownSess {
		return b.sessions.Close()
	}
	return nil
}

// Invoke performs an interrogation: it sends the operation with its
// arguments and blocks until a termination arrives. Application
// terminations are returned as (name, results, nil); infrastructure
// failures as a non-nil error (possibly *RemoteError).
func (b *Binding) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if err := b.typeCheckCall(op, args, false); err != nil {
		return "", nil, err
	}
	if b.inflight != nil {
		// The in-flight cap covers the whole interrogation, retries
		// included, so a retry storm cannot exceed the pipelining bound.
		select {
		case b.inflight <- struct{}{}:
		default:
			if b.cfg.FailFast {
				return "", nil, fmt.Errorf("%w: binding cap %d", ErrTooManyInFlight, b.cfg.MaxInFlight)
			}
			select {
			case b.inflight <- struct{}{}:
			case <-ctx.Done():
				return "", nil, ctx.Err()
			}
		}
		defer func() { <-b.inflight }()
	}
	b.invocations.Add(1)
	b.sessions.invocations.Add(1)
	ins := b.cfg.Instruments
	if ins == nil {
		term, results, err := b.invoke(ctx, op, args)
		if err != nil {
			b.sessions.failures.Add(1)
		}
		return term, results, err
	}
	ctx, sp := ins.Tracer.Start(ctx, "stub:"+op)
	start := time.Now()
	term, results, err := b.invoke(ctx, op, args)
	if err != nil {
		sp.Fail(err)
		b.sessions.failures.Add(1)
	}
	sp.End()
	ins.InvokeLatency.ObserveDuration(time.Since(start))
	return term, results, err
}

// invoke is the uninstrumented interrogation body: one trip through the
// recovery loop, then the client stub's reading of the reply.
func (b *Binding) invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	reply, err := b.interact(ctx, wire.Call, op, args)
	if err != nil {
		return "", nil, err
	}
	switch reply.Kind {
	case wire.Reply:
		if err := b.typeCheckReply(op, reply); err != nil {
			return "", nil, err
		}
		term, results := reply.Termination, reply.Args
		// The reply was delivered solely to this call; the termination
		// string and results slice survive recycling the struct.
		wire.PutMessage(reply)
		return term, results, nil
	case wire.ErrReply:
		return "", nil, b.remoteError(reply)
	default:
		return "", nil, fmt.Errorf("%w: unexpected kind %v", ErrBadReply, reply.Kind)
	}
}

// Announce performs an announcement: the operation is sent without waiting
// for any termination. Delivery is at-most-once.
func (b *Binding) Announce(ctx context.Context, op string, args []values.Value) error {
	if err := b.typeCheckCall(op, args, true); err != nil {
		return err
	}
	b.invocations.Add(1)
	b.sessions.invocations.Add(1)
	_, err := b.interact(ctx, wire.OneWay, op, args)
	if err != nil {
		b.sessions.failures.Add(1)
	}
	return err
}

// Flow emits one element of a stream-interface flow (producer side).
func (b *Binding) Flow(ctx context.Context, flow string, elem values.Value) error {
	if b.cfg.Type != nil {
		f, ok := b.cfg.Type.Flow(flow)
		if !ok {
			return fmt.Errorf("%w: interface %s has no flow %q", ErrTypeCheck, b.cfg.Type.Name, flow)
		}
		if err := f.Elem.Check(elem); err != nil {
			return fmt.Errorf("%w: flow %q: %v", ErrTypeCheck, flow, err)
		}
	}
	_, err := b.interact(ctx, wire.FlowMsg, flow, []values.Value{elem})
	return err
}

// Signal emits one signal-interface primitive.
func (b *Binding) Signal(ctx context.Context, name string, args []values.Value) error {
	if b.cfg.Type != nil {
		s, ok := b.cfg.Type.Signal(name)
		if !ok {
			return fmt.Errorf("%w: interface %s has no signal %q", ErrTypeCheck, b.cfg.Type.Name, name)
		}
		if err := (types.Operation{Name: name, Params: s.Params}).CheckArgs(args); err != nil {
			return fmt.Errorf("%w: signal %v", ErrTypeCheck, err)
		}
	}
	_, err := b.interact(ctx, wire.SignalMsg, name, args)
	return err
}

// Probe checks end-to-end liveness of the channel. Probes are coalesced
// at the session: however many co-located bindings probe concurrently,
// one heartbeat goes on the wire and all of them share its outcome.
// A probe is a single attempt — bounded by the policy's AttemptTimeout,
// never retried — and consults the endpoint's shared circuit breaker like
// any other: an open breaker refuses it, and after the cooling-off period
// the probe is exactly the single half-open trial whose outcome re-closes
// (or re-opens) the breaker for every binding sharing it.
func (b *Binding) Probe(ctx context.Context) error {
	_, err := b.attempt(ctx, b.Ref().Endpoint, nil, 1)
	return err
}

// ---------------------------------------------------------------------------
// the recovery loop

// interact carries one interaction — an interrogation (kind Call, reply
// returned) or a one-way (announcement, flow element, signal; nil reply) —
// through the binding's recovery loop: attempt, and after a transport
// failure or attempt timeout count the retry, back off and re-resolve the
// location before the next one. A CodeNoSuchInterface answer is followed,
// outside the retry count, while the locator offers a newer location. All
// of it shares the caller's context and the policy's deadline budget, and
// a call to an endpoint whose circuit breaker is open fails fast.
func (b *Binding) interact(ctx context.Context, kind wire.MsgKind, op string, args []values.Value) (*wire.Message, error) {
	// A call's correlation id is drawn by its first transmission (see
	// roundTrip) and kept across retries.
	var correl uint64
	if kind != wire.Call {
		correl = b.nextCorrel.Add(1)
	}
	pol := &b.cfg.Policy
	if pol.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = pol.WithBudget(ctx)
		defer cancel()
	}
	for attempt := 1; ; {
		ref := b.Ref()
		m := b.message(kind, ref, b.nextSeq.Add(1), correl, op, args)
		reply, err := b.attempt(ctx, ref.Endpoint, m, attempt)
		// The attempt encodes the request and does not retain it.
		correl = m.Correlation
		wire.PutMessage(m)
		if err == nil {
			stale := reply != nil && reply.Kind == wire.ErrReply && reply.Termination == CodeNoSuchInterface
			if stale && b.cfg.Locator != nil && (b.relocate(true) || b.Ref() != ref) {
				// The interface is not where we thought: the classic stale
				// location. relocate dropped the cached snapshot first —
				// retrying blind against a caching locator would re-read the
				// same stale line — then re-resolved, unless a sibling call
				// already had; replay (Section 9.2).
				continue
			}
			return reply, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, ErrClosed) || errors.Is(err, policy.ErrCircuitOpen) || attempt >= pol.Attempts() {
			return nil, err
		}
		// Transport failure or per-attempt timeout. Failure transparency:
		// retry; relocation transparency: re-resolve first in case the
		// failure was a move.
		b.retries.Add(1)
		b.sessions.retries.Add(1)
		if werr := b.backoff(ctx, attempt); werr != nil {
			return nil, werr
		}
		attempt++
		// A lost connection is location-staleness evidence (the endpoint
		// may be gone because the interface moved), so a caching locator
		// must be told before the re-resolve; a bare attempt timeout is not
		// — the endpoint answered slowly, the cached location is probably
		// fine.
		b.relocate(errors.Is(err, ErrDisconnected))
	}
}

// attempt makes one attempt at the endpoint on behalf of every kind of
// interaction: breaker admission, the per-attempt timeout, the carry itself
// (a round trip for a call, a group-committed send for a one-way, the
// session's shared probe when m is nil), and the single place an outcome
// is classified and recorded in the endpoint's breaker.
func (b *Binding) attempt(ctx context.Context, ep naming.Endpoint, m *wire.Message, n int) (*wire.Message, error) {
	br := b.breakerFor(ep)
	if br != nil {
		if ok, _ := br.Allow(); !ok {
			return nil, fmt.Errorf("%w: endpoint %s", policy.ErrCircuitOpen, ep)
		}
	}
	actx, timeout := ctx, b.cfg.Policy.AttemptTimeout
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var reply *wire.Message
	sess, err := b.session(actx)
	switch {
	case err != nil:
	case m == nil:
		err = sess.probeShared(actx, b)
	case m.Kind == wire.Call:
		reply, err = b.roundTrip(actx, sess, m)
	default:
		err = b.post(sess, m)
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		// The attempt's own timer fired while the interaction as a whole
		// still has budget: a per-attempt timeout, distinct and retryable.
		err = fmt.Errorf("%w: %s: attempt %d exceeded %v: %w",
			ErrAttemptTimeout, ep, n, timeout, err)
	}
	if br != nil {
		// Only endpoint-health outcomes feed the breaker: a connection loss
		// or attempt timeout says the endpoint may be dead; an application
		// or stage error, a local close or a cancellation says nothing.
		br.Record(err == nil || !(errors.Is(err, ErrDisconnected) || errors.Is(err, ErrAttemptTimeout)))
	}
	return reply, err
}

// ---------------------------------------------------------------------------
// internals

// message draws a pooled message and fills the header every frame of this
// binding carries: its replay identity, the position in its sequence and
// its current view of the target.
func (b *Binding) message(kind wire.MsgKind, ref naming.InterfaceRef, seq, correl uint64, op string, args []values.Value) *wire.Message {
	m := wire.GetMessage()
	m.Kind = kind
	m.BindingID = b.bindingID
	m.Seq = seq
	m.Correlation = correl
	m.Target = ref.ID
	m.Epoch = ref.Epoch
	m.Operation = op
	m.Args = args
	return m
}

// encode runs the outbound stages over m and marshals it into a pooled
// frame the caller owns.
func (b *Binding) encode(m *wire.Message) ([]byte, error) {
	if err := runStages(b.cfg.Stages, Outbound, m); err != nil {
		return nil, err
	}
	return m.EncodeAppend(wire.GetFrame(m.SizeHint()), b.cfg.Codec)
}

func (b *Binding) typeCheckCall(op string, args []values.Value, announcement bool) error {
	t := b.cfg.Type
	if t == nil {
		return nil
	}
	decl, ok := t.Operation(op)
	if !ok {
		return fmt.Errorf("%w: interface %s has no operation %q", ErrTypeCheck, t.Name, op)
	}
	if announcement && !decl.IsAnnouncement() {
		return fmt.Errorf("%w: %s.%s is an interrogation, use Invoke", ErrTypeCheck, t.Name, op)
	}
	if !announcement && decl.IsAnnouncement() {
		return fmt.Errorf("%w: %s.%s is an announcement, use Announce", ErrTypeCheck, t.Name, op)
	}
	if err := decl.CheckArgs(args); err != nil {
		return fmt.Errorf("%w: %s.%v", ErrTypeCheck, t.Name, err)
	}
	return nil
}

func (b *Binding) typeCheckReply(op string, reply *wire.Message) error {
	t := b.cfg.Type
	if t == nil {
		return nil
	}
	decl, ok := t.Operation(op)
	if !ok {
		return nil // checked on the way out; be lenient here
	}
	if err := decl.CheckTermination(reply.Termination, reply.Args); err != nil {
		return fmt.Errorf("%w: %s.%v", ErrTypeCheck, t.Name, err)
	}
	return nil
}

func (b *Binding) remoteError(reply *wire.Message) error {
	detail := ""
	if len(reply.Args) == 1 {
		if s, ok := reply.Args[0].AsString(); ok {
			detail = s
		}
	}
	return &RemoteError{Code: reply.Termination, Detail: detail}
}

// breakerFor returns the shared circuit breaker for ep, or nil when the
// session manager has no breaker set attached — a single atomic load on
// the no-policy hot path.
func (b *Binding) breakerFor(ep naming.Endpoint) *policy.Breaker {
	bs := b.sessions.Breakers()
	if bs == nil {
		return nil
	}
	return bs.For(string(ep))
}

// backoff sleeps the policy's delay before retry number retry, accounting
// the delay in the session manager's BackoffNs.
func (b *Binding) backoff(ctx context.Context, retry int) error {
	d := b.cfg.Policy.Backoff(retry)
	b.sessions.backoffNs.Add(uint64(d))
	return policy.Wait(ctx, d)
}

// roundTrip carries one request that expects an answer — a call, or the
// session's shared liveness probe — to the endpoint and waits for it: the
// one place a waiter is registered, a frame queued and a reply awaited.
func (b *Binding) roundTrip(ctx context.Context, sess *Session, m *wire.Message) (*wire.Message, error) {
	// A caller that has already given up sends nothing: the wait below
	// could otherwise take a fast reply over the done context.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var tr *mgmt.Tracer
	if b.cfg.Instruments != nil {
		tr = b.cfg.Instruments.Tracer
	}
	var (
		tsp   *mgmt.ActiveSpan
		frame []byte
		ch    chan *wire.Message
	)
	b.order.Lock() // until the frame is queued; see the field
	if m.Correlation == 0 {
		m.Correlation = b.nextCorrel.Add(1)
	}
	_, bsp := tr.Start(ctx, "binder")
	err := runStages(b.cfg.Stages, Outbound, m)
	bsp.Fail(err)
	bsp.End()
	if err == nil {
		// The transport span covers encode, send and the wait for the
		// reply; its context rides the frame's trace extension, so the
		// server's dispatch span parents under it.
		_, tsp = tr.Start(ctx, "transport")
		if sc := tsp.Context(); !sc.IsZero() {
			m.TraceID = uint64(sc.Trace)
			m.SpanID = uint64(sc.Span)
		}
		frame, err = m.EncodeAppend(wire.GetFrame(m.SizeHint()), b.cfg.Codec)
	}
	if err == nil {
		if ch, err = sess.register(b.bindingID, m.Correlation); err != nil {
			wire.PutFrame(frame)
		}
	}
	if err == nil {
		// send takes ownership of the frame: it is queued to the session's
		// sender goroutine (coalescing with every concurrent attempt on
		// this session into one vectored write) and recycled after the
		// write. A send failure has already killed the session, so every
		// binding sharing it fails over together.
		if err = sess.send(frame); err != nil {
			sess.abandon(b.bindingID, m.Correlation, ch)
		}
	}
	b.order.Unlock()
	if err != nil {
		tsp.Fail(err)
		tsp.End()
		return nil, err
	}
	select {
	case reply := <-ch:
		release(ch)
		if reply == nil {
			// Death notification: the session's read loop failed every
			// pending interrogation at once.
			tsp.Fail(ErrDisconnected)
			tsp.End()
			return nil, ErrDisconnected
		}
		tsp.End()
		if err := runStages(b.cfg.Stages, Inbound, reply); err != nil {
			wire.PutMessage(reply)
			return nil, err
		}
		return reply, nil
	case <-ctx.Done():
		sess.abandon(b.bindingID, m.Correlation, ch)
		tsp.Fail(ctx.Err())
		tsp.End()
		return nil, ctx.Err()
	}
}

// post transmits one frame that expects no reply. One-ways ride the
// session's batched queue like calls do — concurrent announcements
// coalesce into one vectored write — but each is flushed before returning
// (group commit), so a send that can never depart still surfaces its error
// to the recovery loop instead of vanishing. A send or flush failure has
// already killed the session and wrapped the error in ErrDisconnected.
func (b *Binding) post(sess *Session, m *wire.Message) error {
	frame, err := b.encode(m)
	if err != nil {
		return err
	}
	if err := sess.send(frame); err != nil { // send owns the frame
		return err
	}
	b.oneWayQueued.Add(1)
	return sess.flushSends()
}

// session attaches the binding to its current endpoint and returns that
// endpoint's shared session, dialling (single-flight across bindings) if
// necessary.
func (b *Binding) session(ctx context.Context) (*Session, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	ep := b.ref.Endpoint
	if !b.attached || b.attachedEP != ep {
		// The binding moved endpoints (relocation): move its session
		// reference in one step, leaving its sibling calls still pending
		// at the old endpoint to be answered there. detach/attach never
		// take this binding's lock.
		if b.attached {
			b.sessions.detach(b.attachedEP, true)
		}
		b.sessions.attach(ep)
		b.attached, b.attachedEP = true, ep
	}
	b.mu.Unlock()

	s, err := b.sessions.session(ctx, ep)
	if err != nil {
		if !errors.Is(err, ErrClosed) {
			// An undialable endpoint is staleness evidence too: drop the
			// cached location so the refresh reaches the authority, and the
			// next attempt dials where the interface is now.
			b.relocate(true)
		}
		return nil, err
	}
	b.mu.Lock()
	if b.lastSess != s {
		b.lastSess = s
		b.reconnects.Add(1)
	}
	b.mu.Unlock()
	return s, nil
}

// relocate consults the locator — after first telling a caching locator to
// drop its entry, when the caller holds staleness evidence — and adopts and
// accounts a newer location if one exists. It reports whether the binding's
// view changed.
func (b *Binding) relocate(stale bool) bool {
	if b.cfg.Locator == nil {
		return false
	}
	id := b.Ref().ID
	if inv, ok := b.cfg.Locator.(LocationInvalidator); ok && stale {
		inv.Invalidate(id)
	}
	ref, err := b.cfg.Locator.Lookup(id)
	if err != nil {
		return false
	}
	b.mu.Lock()
	changed := ref.Epoch > b.ref.Epoch || ref.Endpoint != b.ref.Endpoint
	if changed {
		b.ref = ref
	}
	b.mu.Unlock()
	if !changed {
		return false
	}
	b.relocations.Add(1)
	b.sessions.relocations.Add(1)
	return true
}
