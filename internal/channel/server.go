package channel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

// Handler is the application-facing side of a servant: the server stub
// unmarshals a call, type-checks it against the interface type, and hands
// it to the Handler, which returns a termination name and its results.
type Handler interface {
	Invoke(ctx context.Context, op string, args []values.Value) (termination string, results []values.Value, err error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)

// Invoke implements Handler.
func (f HandlerFunc) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	return f(ctx, op, args)
}

// FlowReceiver is implemented by servants that accept stream flows.
type FlowReceiver interface {
	Flow(flow string, elem values.Value)
}

// SignalReceiver is implemented by servants that accept raw signals.
type SignalReceiver interface {
	Signal(name string, args []values.Value)
}

// ServerConfig configures the server end of a channel.
type ServerConfig struct {
	// Stages are this end's stub/binder components; on inbound requests
	// they run innermost-first (mirror of the client pipeline).
	Stages []Stage
	// ReplayGuard enables the binder's capture-and-replay defence
	// (tutorial Section 6.1): duplicate calls are answered from a bounded
	// reply cache, and correlation ids older than the cache reaches are
	// rejected.
	ReplayGuard bool
	// Instruments enables management instrumentation of this channel end:
	// dispatch spans (parented under the caller's trace extension, when
	// present) and dispatch metrics. Nil disables it.
	Instruments *mgmt.ChannelServerInstruments
}

// The server end's bounds, at the values every deployment runs with.
const (
	// replayWindow is how far below a binding's highest correlation id the
	// replay guard remembers outcomes (see bindingGuard): twice the deepest
	// pipelining a binding does (MaxInFlight 64).
	replayWindow uint64 = 128
	// replayKeep is the largest buffer a replay slot keeps for its next
	// reply: one large reply must not stay pinned for the binding's lifetime.
	replayKeep = 4 << 10
	// maxGuardBindings bounds the bindings the guard tracks (see guardCheck).
	maxGuardBindings = 1024
	// workersPerProc sizes the pool that runs servant code, per GOMAXPROCS:
	// servants block on locks and nested calls, so a few per processor.
	workersPerProc = 4
)

// ServerStats counts channel events at the server end.
type ServerStats struct {
	Calls     uint64
	OneWays   uint64
	Flows     uint64
	Signals   uint64
	Errors    uint64
	Replays   uint64
	BadFrames uint64
	// FlowTypeErrors counts inbound flow traffic (FlowMsg and FlowBatch)
	// rejected by the server stub's type machinery: unknown flow name,
	// element failing the flow's element type, a servant that cannot
	// receive flows, or a malformed element count. Historically these were
	// folded into Errors and silently dropped; the dedicated counter lets
	// chaos runs assert it stayed zero.
	FlowTypeErrors uint64
	// FlowBatches counts FlowBatch frames accepted (open/elems/close) and
	// CreditGrants counts credit grants sent back to producers.
	FlowBatches  uint64
	CreditGrants uint64
	// Sessions counts connections accepted over the server's lifetime.
	// Each accepted conn is one inbound session carrying any number of
	// bindings, so with session-sharing clients this stays O(peer nodes)
	// while Calls grows O(bindings × calls).
	Sessions uint64
	// Open is the number of inbound sessions live right now.
	Open int
}

type servantEntry struct {
	typ     *types.Interface
	handler Handler
}

// Server is the server end of engineering channels at one endpoint: it
// accepts connections, runs the inbound pipeline and dispatches calls to
// registered servants by interface identity.
type Server struct {
	cfg      ServerConfig
	listener netsim.Listener

	mu         sync.RWMutex
	servants   map[naming.InterfaceID]*servantEntry
	guards     map[uint64]*bindingGuard
	guardOrder []uint64 // binding ids in creation order, for eviction
	conns      map[netsim.Conn]struct{}
	closed     bool

	wg       sync.WaitGroup
	tasks    chan task
	workerWG sync.WaitGroup

	calls          atomic.Uint64
	oneWays        atomic.Uint64
	flows          atomic.Uint64
	signals        atomic.Uint64
	errCount       atomic.Uint64
	replays        atomic.Uint64
	badFrames      atomic.Uint64
	sessions       atomic.Uint64
	flowTypeErrors atomic.Uint64
	flowBatches    atomic.Uint64
	creditGrants   atomic.Uint64
}

// NewServer wraps a listener. Call Start to begin accepting.
func NewServer(l netsim.Listener, cfg ServerConfig) *Server {
	return &Server{
		cfg:      cfg,
		listener: l,
		servants: make(map[naming.InterfaceID]*servantEntry),
		guards:   make(map[uint64]*bindingGuard),
		conns:    make(map[netsim.Conn]struct{}),
	}
}

// Register installs a servant for an interface. The interface type enables
// the server stub's type checking; pass nil to serve untyped.
func (s *Server) Register(id naming.InterfaceID, typ *types.Interface, h Handler) error {
	if h == nil {
		return fmt.Errorf("channel: nil handler for %s", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.servants[id]; exists {
		return fmt.Errorf("channel: interface %s already registered", id)
	}
	s.servants[id] = &servantEntry{typ: typ, handler: h}
	return nil
}

// Unregister removes a servant (e.g. when its cluster migrates away).
// Subsequent calls to the interface receive CodeNoSuchInterface, which is
// the signal that drives the client binder's relocation path.
func (s *Server) Unregister(id naming.InterfaceID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.servants, id)
}

// Start begins accepting connections; it returns immediately. Use Close to
// stop and wait for connection handlers to drain.
func (s *Server) Start() {
	workers := runtime.GOMAXPROCS(0) * workersPerProc
	s.tasks = make(chan task, workers*4)
	for i := 0; i < workers; i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for t := range s.tasks {
				s.runTask(t)
			}
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := s.listener.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
}

// Close stops accepting, closes the listener and all live connections,
// and waits for in-flight handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]netsim.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	// All read loops have exited, so no more work can be queued; drain the
	// worker pool before reporting the server closed.
	if s.tasks != nil {
		close(s.tasks)
		s.workerWG.Wait()
	}
	return err
}

// task is one unit of servant work for the worker pool: a call (q is its
// connection's reply writer) or an announcement (q nil). A plain struct
// rather than a closure so dispatching allocates nothing.
type task struct {
	q *frameQueue
	m *wire.Message
}

func (s *Server) runTask(t task) {
	if t.q != nil {
		s.handleCall(t.q, t.m)
	} else {
		s.handleOneWay(t.m)
	}
	// The request message is finished: handlers pass on operation names and
	// argument slices, never the Message itself, so it can be recycled.
	wire.PutMessage(t.m)
}

// dispatch hands work to the bounded pool, executing inline when the queue
// is full so no message is ever lost.
func (s *Server) dispatch(t task) {
	select {
	case s.tasks <- t:
	default:
		s.runTask(t)
	}
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	s.mu.RLock()
	open := len(s.conns)
	s.mu.RUnlock()
	return ServerStats{
		Calls:          s.calls.Load(),
		OneWays:        s.oneWays.Load(),
		Flows:          s.flows.Load(),
		Signals:        s.signals.Load(),
		Errors:         s.errCount.Load(),
		Replays:        s.replays.Load(),
		BadFrames:      s.badFrames.Load(),
		Sessions:       s.sessions.Load(),
		FlowTypeErrors: s.flowTypeErrors.Load(),
		FlowBatches:    s.flowBatches.Load(),
		CreditGrants:   s.creditGrants.Load(),
		Open:           open,
	}
}

func (s *Server) serveConn(conn netsim.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.sessions.Add(1)
	// The connection's reply writer: worker-pool handlers answering calls
	// from this session enqueue here, so concurrent replies coalesce into
	// vectored writes exactly as the client's concurrent calls did on the
	// way in. Frames are queued best-effort: a dead conn fails the
	// client's call by timeout.
	var bi batchInstruments
	if ins := s.cfg.Instruments; ins != nil {
		bi = batchInstruments{
			framesPerWrite: ins.ReplyFramesPerWrite,
			batchBytes:     ins.ReplyBatchBytes,
			queueDepth:     ins.ReplyQueueDepth,
		}
	}
	q := newFrameQueue(conn, sendQueueBytes, sendBatchBytes, bi,
		func(error) { conn.Close() }) // a dead writer wakes the read loop
	// The conn is one inbound session: the distinct binding ids seen on it
	// are its multiplexed bindings. Only this read loop touches the set.
	bindings := make(map[uint64]struct{})
	// Open flow streams carried by this conn, keyed by (binding, stream).
	// Only the read loop touches the map; the grant closures inside escape
	// to consumer goroutines but go through the thread-safe reply writer.
	streams := make(map[pendKey]*streamState)
	defer func() {
		// Streams die with their connection: tell each receiver so blocked
		// consumers wake with the disconnection instead of waiting for an
		// end-of-stream that cannot arrive.
		for key, st := range streams {
			st.recv.StreamBatch(StreamBatch{
				Phase:   StreamClose,
				Binding: key.binding,
				Stream:  key.correl,
				Flow:    st.flow,
				Err:     ErrDisconnected,
			})
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		// Drain accepted replies (handlers still running will see
		// ErrSessionClosing and drop theirs, as a dead conn always did).
		q.close()
		conn.Close()
		if ins := s.cfg.Instruments; ins != nil {
			ins.BindingsPerSession.Observe(uint64(len(bindings)))
		}
	}()
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		m, err := wire.Decode(frame)
		// Decode copies every escaping payload out of the frame, so the
		// buffer can be recycled immediately, whatever the outcome.
		wire.PutFrame(frame)
		if err != nil {
			s.badFrames.Add(1)
			continue
		}
		if m.BindingID != 0 {
			bindings[m.BindingID] = struct{}{}
		}
		if err := runStages(s.cfg.Stages, Inbound, m); err != nil {
			s.errCount.Add(1)
			if m.Kind == wire.Call {
				s.sendErr(q, m, stageCode(err), err.Error())
			}
			wire.PutMessage(m)
			continue
		}
		switch m.Kind {
		case wire.Probe:
			s.reply(q, m, wire.ProbeAck, "", nil)
			wire.PutMessage(m)
		case wire.Call:
			s.calls.Add(1)
			if s.cfg.ReplayGuard {
				switch verdict, cached := s.guardCheck(m); verdict {
				case guardReplayCached:
					_ = q.enqueue(cached)
					s.replays.Add(1)
					wire.PutMessage(m)
					continue
				case guardReplayReject:
					s.replays.Add(1)
					s.sendErr(q, m, CodeReplay, "correlation id regressed")
					wire.PutMessage(m)
					continue
				case guardInFlight:
					s.replays.Add(1)
					wire.PutMessage(m)
					continue // original execution will answer
				}
			}
			s.dispatch(task{q: q, m: m})
		case wire.OneWay:
			s.oneWays.Add(1)
			s.dispatch(task{m: m})
		case wire.FlowMsg:
			s.flows.Add(1)
			s.handleFlow(m)
			wire.PutMessage(m)
		case wire.FlowBatch:
			// Handled inline on the read loop, never the worker pool: wire
			// order on the conn IS per-flow FIFO order, and the credit
			// window guarantees the receiver's bounded buffer can absorb
			// the batch without blocking, so inline delivery is safe.
			s.flowBatches.Add(1)
			s.handleFlowBatch(q, streams, m)
			wire.PutMessage(m)
		case wire.SignalMsg:
			s.signals.Add(1)
			s.handleSignal(m)
			wire.PutMessage(m)
		default:
			s.badFrames.Add(1)
			wire.PutMessage(m)
		}
	}
}

func stageCode(err error) string {
	var se *StageError
	if errors.As(err, &se) {
		return se.Code
	}
	return CodeInternal
}

func (s *Server) lookup(id naming.InterfaceID) (*servantEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.servants[id]
	return e, ok
}

func (s *Server) handleCall(q *frameQueue, m *wire.Message) {
	e, ok := s.lookup(m.Target)
	if !ok {
		s.sendErr(q, m, CodeNoSuchInterface, m.Target.String())
		return
	}
	var decl types.Operation
	if e.typ != nil {
		decl, ok = e.typ.Operation(m.Operation)
		if !ok {
			s.sendErr(q, m, CodeNoSuchOperation, m.Operation)
			return
		}
		if err := decl.CheckArgs(m.Args); err != nil {
			s.sendErr(q, m, CodeBadArgs, err.Error())
			return
		}
	}
	ctx := context.Background()
	ins := s.cfg.Instruments
	var sp *mgmt.ActiveSpan
	if ins != nil {
		// Parent under the caller's transport span when the frame carried a
		// trace extension; an untraced caller still gets a local root span.
		ctx, sp = ins.Tracer.StartRemote(ctx, "dispatch:"+m.Operation,
			mgmt.SpanContext{Trace: mgmt.TraceID(m.TraceID), Span: mgmt.SpanID(m.SpanID)})
	}
	term, results, err := e.handler.Invoke(ctx, m.Operation, m.Args)
	if ins != nil {
		sp.Fail(err)
		ins.DispatchLatency.ObserveDuration(sp.End())
	}
	if err != nil {
		// Handlers may return a *StageError to control the code (e.g. an
		// activator wrapper reporting a deactivated cluster).
		s.sendErr(q, m, stageCode(err), err.Error())
		return
	}
	if e.typ != nil && !decl.IsAnnouncement() {
		if err := decl.CheckTermination(term, results); err != nil {
			// The servant itself violated its declared type: a server bug,
			// reported as internal rather than leaking the bad payload.
			s.sendErr(q, m, CodeInternal, err.Error())
			return
		}
	}
	s.reply(q, m, wire.Reply, term, results)
}

func (s *Server) handleOneWay(m *wire.Message) {
	e, ok := s.lookup(m.Target)
	if !ok {
		return // announcements have no failure path back
	}
	if e.typ != nil {
		decl, ok := e.typ.Operation(m.Operation)
		if !ok || !decl.IsAnnouncement() {
			s.errCount.Add(1)
			return
		}
		if err := decl.CheckArgs(m.Args); err != nil {
			s.errCount.Add(1)
			return
		}
	}
	if _, _, err := e.handler.Invoke(context.Background(), m.Operation, m.Args); err != nil {
		s.errCount.Add(1)
	}
}

// flowTypeError records one flow interaction the server stub rejected on
// type grounds. It still counts toward Errors (the historical behaviour)
// but also the dedicated FlowTypeErrors counter, so a chaos run can assert
// no element was silently dropped for type reasons.
func (s *Server) flowTypeError() {
	s.errCount.Add(1)
	s.flowTypeErrors.Add(1)
}

func (s *Server) handleFlow(m *wire.Message) {
	e, ok := s.lookup(m.Target)
	if !ok {
		s.errCount.Add(1) // unknown interface: a routing miss, not a type error
		return
	}
	if len(m.Args) != 1 {
		s.flowTypeError()
		return
	}
	if e.typ != nil {
		f, ok := e.typ.Flow(m.Operation)
		if !ok {
			s.flowTypeError()
			return
		}
		if err := f.Elem.Check(m.Args[0]); err != nil {
			s.flowTypeError()
			return
		}
	}
	if fr, ok := e.handler.(FlowReceiver); ok {
		fr.Flow(m.Operation, m.Args[0])
		return
	}
	s.flowTypeError()
}

// streamState is the read loop's record of one open flow stream on a
// connection.
type streamState struct {
	flow     string
	recv     StreamReceiver
	elemType *values.DataType // nil when the servant is untyped
	grant    func(cumElems, cumBytes uint64)
}

// handleFlowBatch processes one FlowBatch frame inline on the conn's read
// loop: opens record the stream and hand the receiver its grant function,
// element batches are type-checked (mistyped elements are dropped but
// reported, so the consumer can still credit them back — the producer
// already debited its window for them), and end-of-stream tears the
// record down.
func (s *Server) handleFlowBatch(q *frameQueue, streams map[pendKey]*streamState, m *wire.Message) {
	key := pendKey{m.BindingID, m.Correlation}
	switch m.Termination {
	case wire.StreamOpenMark:
		e, ok := s.lookup(m.Target)
		if !ok {
			s.errCount.Add(1)
			return
		}
		recv, ok := e.handler.(StreamReceiver)
		if !ok {
			s.flowTypeError()
			return
		}
		var elemType *values.DataType
		if e.typ != nil {
			f, ok := e.typ.Flow(m.Operation)
			if !ok {
				s.flowTypeError()
				return
			}
			elemType = f.Elem
		}
		// The grant closure captures the conn's reply writer (thread-safe),
		// the stream's wire coordinates and the producer's codec, so the
		// consumer can grant from any goroutine for the conn's lifetime.
		binding, stream, codecID := m.BindingID, m.Correlation, m.Codec
		grant := func(cumElems, cumBytes uint64) {
			s.sendGrant(q, binding, stream, codecID, cumElems, cumBytes)
		}
		st := &streamState{flow: m.Operation, recv: recv, elemType: elemType, grant: grant}
		streams[key] = st
		recv.StreamBatch(StreamBatch{
			Phase:   StreamOpen,
			Binding: binding,
			Stream:  stream,
			Flow:    m.Operation,
			Grant:   grant,
		})
	case wire.StreamEOSMark:
		st, ok := streams[key]
		if !ok {
			return // close of an unopened (or refused) stream: nothing to do
		}
		delete(streams, key)
		st.recv.StreamBatch(StreamBatch{
			Phase:   StreamClose,
			Binding: key.binding,
			Stream:  key.correl,
			Flow:    st.flow,
			Seq:     m.Seq,
		})
	default:
		st, ok := streams[key]
		if !ok {
			// Elements for a stream the server never opened (refused open,
			// or a protocol bug): there is no receiver to credit them, so
			// they are dropped and counted.
			s.errCount.Add(1)
			return
		}
		elems := m.Args
		var dropped, droppedBytes uint64
		if st.elemType != nil {
			kept := elems[:0]
			for _, v := range elems {
				if err := st.elemType.Check(v); err != nil {
					dropped++
					droppedBytes += uint64(wire.ValueSizeHint(v))
					s.flowTypeError()
					continue
				}
				kept = append(kept, v)
			}
			elems = kept
		}
		st.recv.StreamBatch(StreamBatch{
			Phase:        StreamElems,
			Binding:      key.binding,
			Stream:       key.correl,
			Flow:         st.flow,
			Seq:          m.Seq,
			Elems:        elems,
			DroppedElems: dropped,
			DroppedBytes: droppedBytes,
			Grant:        st.grant,
		})
	}
}

// sendGrant transmits one credit grant on a connection's reply path. The
// grant is a bare header — stream id in Correlation, cumulative element
// credit in Seq, cumulative byte credit in Epoch — encoded with the
// producer's own codec.
func (s *Server) sendGrant(q *frameQueue, binding, stream uint64, codecID wire.CodecID, cumElems, cumBytes uint64) {
	s.creditGrants.Add(1)
	m := wire.GetMessage()
	m.Kind = wire.CreditGrant
	m.BindingID = binding
	m.Correlation = stream
	m.Seq = cumElems
	m.Epoch = cumBytes
	codec, err := wire.ByID(codecID)
	if err != nil {
		codec = wire.Canonical
	}
	frame, err := m.EncodeAppend(wire.GetFrame(m.SizeHint()), codec)
	wire.PutMessage(m)
	if err != nil {
		s.errCount.Add(1)
		wire.PutFrame(frame)
		return
	}
	_ = q.enqueue(frame)
}

func (s *Server) handleSignal(m *wire.Message) {
	e, ok := s.lookup(m.Target)
	if !ok {
		s.errCount.Add(1)
		return
	}
	if sr, ok := e.handler.(SignalReceiver); ok {
		sr.Signal(m.Operation, m.Args)
		return
	}
	s.errCount.Add(1)
}

func (s *Server) sendErr(q *frameQueue, req *wire.Message, code, detail string) {
	s.errCount.Add(1)
	s.reply(q, req, wire.ErrReply, code, []values.Value{values.Str(detail)})
}

// reply answers req on its connection's reply writer q, best-effort — a
// dead conn fails the client's call by timeout: the answer's header mirrors
// the request's, then the outbound pipeline, the request's codec and the
// queue, recording a copy in the replay guard's window when enabled.
func (s *Server) reply(q *frameQueue, req *wire.Message, kind wire.MsgKind, term string, args []values.Value) {
	m := wire.GetMessage()
	defer wire.PutMessage(m)
	m.Kind = kind
	m.BindingID = req.BindingID
	m.Correlation = req.Correlation
	m.Target = req.Target
	m.Operation = req.Operation
	m.Termination = term
	m.Args = args
	if err := runStages(s.cfg.Stages, Outbound, m); err != nil {
		s.errCount.Add(1)
		return
	}
	codec, err := wire.ByID(req.Codec)
	if err != nil {
		codec = wire.Canonical
	}
	frame, err := m.EncodeAppend(wire.GetFrame(m.SizeHint()), codec)
	if err != nil {
		s.errCount.Add(1)
		wire.PutFrame(frame)
		return
	}
	if s.cfg.ReplayGuard && req.Kind == wire.Call {
		s.guardStore(req, frame, kind != wire.ErrReply || term != CodeNoSuchInterface)
	}
	_ = q.enqueue(frame)
}

// ---------------------------------------------------------------------------
// replay guard (binder): at-most-once execution per (binding, correlation)

type guardVerdict int

const (
	guardFresh guardVerdict = iota
	guardInFlight
	guardReplayCached
	guardReplayReject
)

// bindingGuard is one binding's replay window: the correlation high-water
// mark and the outcome of every correlation seen within replayWindow
// below it. A binding queues first transmissions in id order, but a retry
// whose first transmission was lost arrives below the ids its siblings
// used meanwhile, so "new" cannot mean "above the mark". The window is a
// ring indexed by correlation % replayWindow — the ids inside it are
// consecutive, so no two share a slot — grown on first use, and each slot
// keeps its own copy of the reply in a buffer it reuses: no frame is ever
// shared between the guard and a reply queue.
type bindingGuard struct {
	maxSeen uint64
	slots   []replaySlot
}

type replaySlot struct {
	correlation uint64
	state       slotState
	reply       []byte // the encoded reply, when answered; capacity kept across reuse
}

type slotState uint8

const (
	slotEmpty slotState = iota
	slotInFlight
	slotAnswered
)

// slot returns the ring slot that correlation maps to.
func (g *bindingGuard) slot(correlation uint64) *replaySlot {
	i := int(correlation % replayWindow)
	if i >= len(g.slots) {
		g.slots = append(g.slots, make([]replaySlot, i+1-len(g.slots))...)
	}
	return &g.slots[i]
}

// guardCheck classifies a call. For guardReplayCached it also returns the
// recorded reply, copied into a pooled frame the caller owns.
func (s *Server) guardCheck(m *wire.Message) (guardVerdict, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.guards[m.BindingID]
	if !ok {
		// Bound the number of tracked bindings: evict oldest-first so a
		// flood of fresh binding ids cannot grow the guard without bound.
		for len(s.guards) >= maxGuardBindings && len(s.guardOrder) > 0 {
			evict := s.guardOrder[0]
			s.guardOrder = s.guardOrder[1:]
			delete(s.guards, evict)
		}
		g = &bindingGuard{}
		s.guards[m.BindingID] = g
		s.guardOrder = append(s.guardOrder, m.BindingID)
	}
	sl := g.slot(m.Correlation)
	if sl.state != slotEmpty && sl.correlation == m.Correlation {
		if sl.state == slotInFlight {
			return guardInFlight, nil
		}
		return guardReplayCached, append(wire.GetFrame(len(sl.reply)), sl.reply...)
	}
	if g.maxSeen >= replayWindow && m.Correlation <= g.maxSeen-replayWindow {
		// Older than the window: seen and evicted, or forged. Reject rather
		// than re-execute — this is the capture-and-replay defence.
		return guardReplayReject, nil
	}
	// Unseen and inside the window (or above the mark): never executed,
	// because eviction is by distance from the mark, never by arrival
	// order — an id still inside the window cannot have been forgotten.
	if m.Correlation > g.maxSeen && m.Correlation-g.maxSeen >= replayWindow {
		for i := range g.slots {
			g.slots[i].state = slotEmpty // the whole old window fell behind the new one
		}
		g.maxSeen = m.Correlation
	}
	for g.maxSeen < m.Correlation {
		// Each step of the mark pushes exactly one id out of the window:
		// the one that shares the new mark's slot.
		g.maxSeen++
		g.slot(g.maxSeen).state = slotEmpty
	}
	sl = g.slot(m.Correlation)
	sl.correlation, sl.state = m.Correlation, slotInFlight
	return guardFresh, nil
}

// guardStore records a call's encoded reply for replay answering, copying
// it into the call's slot, and reports whether it did. A call that never
// ran (answered CodeNoSuchInterface) is forgotten instead: when it follows
// its object back here it runs, once.
func (s *Server) guardStore(req *wire.Message, frame []byte, ran bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.guards[req.BindingID]
	if !ok {
		return false
	}
	sl := g.slot(req.Correlation)
	if sl.state == slotEmpty || sl.correlation != req.Correlation {
		return false
	}
	if !ran {
		sl.state = slotEmpty
		return false
	}
	if cap(sl.reply) > replayKeep {
		sl.reply = nil
	}
	sl.reply, sl.state = append(sl.reply[:0], frame...), slotAnswered
	return true
}
