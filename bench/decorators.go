package main

import (
	"context"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/trader"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
	"repro/internal/wire"
)

// Every decorator here wraps a public interface of the system, forwards
// each call unchanged, and records when it happened. None is installed on
// an untraced run.

// ---------------------------------------------------------------------------
// netsim.Transport / Listener / Conn

type tracedTransport struct {
	inner netsim.Transport
	tr    *tracer
}

func (t tracedTransport) Dial(ctx context.Context, ep naming.Endpoint) (netsim.Conn, error) {
	c, err := t.inner.Dial(ctx, ep)
	if err != nil {
		return nil, err
	}
	t.tr.dials.Add(1)
	return wrapConn(c, t.tr, false), nil
}

func (t tracedTransport) Listen(ep naming.Endpoint) (netsim.Listener, error) {
	l, err := t.inner.Listen(ep)
	if err != nil {
		return nil, err
	}
	return tracedListener{Listener: l, tr: t.tr}, nil
}

type tracedListener struct {
	netsim.Listener
	tr *tracer
}

func (l tracedListener) Accept() (netsim.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return wrapConn(c, l.tr, true), nil
}

// tracedConn times Send and Recv of one end of a connection.
type tracedConn struct {
	netsim.Conn
	tr                     *tracer
	sendIn, sendOut, recvd int // the boundaries this end's calls mark
	client                 bool
}

// The session sender probes its conn for BatchSender (vectored writes) and
// Flusher; a wrapper that hid them would make it fall back to one write
// per frame and the traced run would measure a different data plane. So
// the wrapper offers exactly the optional interfaces the wrapped conn has.
type (
	tracedConnB struct {
		*tracedConn
		bs netsim.BatchSender
	}
	tracedConnF struct {
		*tracedConn
		fl netsim.Flusher
	}
	tracedConnBF struct {
		*tracedConn
		bs netsim.BatchSender
		fl netsim.Flusher
	}
)

func wrapConn(c netsim.Conn, tr *tracer, server bool) netsim.Conn {
	tc := &tracedConn{Conn: c, tr: tr, sendIn: bCliSendIn, sendOut: bCliSendOut, recvd: bCliRecv, client: true}
	if server {
		tc.sendIn, tc.sendOut, tc.recvd, tc.client = bSrvSendIn, bSrvSendOut, bSrvRecv, false
	}
	bs, hasB := c.(netsim.BatchSender)
	fl, hasF := c.(netsim.Flusher)
	switch {
	case hasB && hasF:
		return tracedConnBF{tc, bs, fl}
	case hasB:
		return tracedConnB{tc, bs}
	case hasF:
		return tracedConnF{tc, fl}
	}
	return tc
}

// frameOp finds the captured operation a frame belongs to. Only the
// protocol object knows the frame layout, so the frame is read with
// wire.Decode (which copies what it keeps and leaves the frame alone).
// sending says whether this end is writing the frame.
func (c *tracedConn) frameOp(frame []byte, sending bool) *opTrace {
	tr := c.tr
	if !tr.capture.Load() {
		return nil
	}
	m, err := wire.Decode(frame)
	if err != nil {
		return nil
	}
	key := opKey{m.BindingID, m.Correlation}
	kind := m.Kind
	wire.PutMessage(m)
	if c.client && (kind == wire.Call || kind == wire.Reply || kind == wire.FlowBatch) {
		tr.keepFrame(frame, sending)
	}
	return tr.find(key)
}

// keepFrame copies a few of the frames the client end wrote (requests) and
// read (replies) for the wire replay.
func (t *tracer) keepFrame(frame []byte, request bool) {
	const keep = 64
	t.doneMu.Lock()
	dst := &t.repFrames
	if request {
		dst = &t.reqFrames
	}
	if len(*dst) < keep {
		*dst = append(*dst, append([]byte(nil), frame...))
	}
	full := len(t.reqFrames) >= keep
	t.doneMu.Unlock()
	if full && len(t.byName) == 0 {
		// No interrogation is being captured (a stream workload): the
		// frames were all the capture was for.
		t.capture.Store(false)
	}
}

func (c *tracedConn) Send(frame []byte) error {
	if !c.tr.on.Load() {
		return c.Conn.Send(frame)
	}
	op := c.frameOp(frame, true)
	size := int64(len(frame)) + 4
	t0 := c.tr.now()
	err := c.Conn.Send(frame)
	t1 := c.tr.now()
	c.tr.bound[c.sendIn].add(t0)
	c.tr.bound[c.sendOut].add(t1)
	c.tr.writes.Add(1)
	c.tr.frames.Add(1)
	c.tr.wireBytes.Add(size)
	if op != nil {
		op.mark(c.sendIn, t0)
		op.mark(c.sendOut, t1)
	}
	return err
}

func (c *tracedConn) sendBatch(bs netsim.BatchSender, frames [][]byte) error {
	if !c.tr.on.Load() {
		return bs.SendBatch(frames)
	}
	var ops []*opTrace
	var size int64
	for _, f := range frames {
		size += int64(len(f)) + 4
		if op := c.frameOp(f, true); op != nil {
			ops = append(ops, op)
		}
	}
	n := int64(len(frames))
	t0 := c.tr.now()
	err := bs.SendBatch(frames)
	t1 := c.tr.now()
	c.tr.bound[c.sendIn].addN(t0, n)
	c.tr.bound[c.sendOut].addN(t1, n)
	c.tr.writes.Add(1)
	c.tr.frames.Add(n)
	c.tr.wireBytes.Add(size)
	for _, op := range ops {
		op.mark(c.sendIn, t0)
		op.mark(c.sendOut, t1)
	}
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	frame, err := c.Conn.Recv()
	if err != nil || !c.tr.on.Load() {
		return frame, err
	}
	t := c.tr.now()
	c.tr.bound[c.recvd].add(t)
	if op := c.frameOp(frame, false); op != nil {
		op.mark(c.recvd, t)
	}
	return frame, nil
}

func (c tracedConnB) SendBatch(frames [][]byte) error  { return c.sendBatch(c.bs, frames) }
func (c tracedConnBF) SendBatch(frames [][]byte) error { return c.sendBatch(c.bs, frames) }
func (c tracedConnF) Flush() error                     { return c.fl.Flush() }
func (c tracedConnBF) Flush() error                    { return c.fl.Flush() }

// ---------------------------------------------------------------------------
// channel.Stage (client end) and channel.Handler (servant)

// tracedStage is installed as the only — so the innermost — stage of a
// traced binding. It sees each request after the stub and binder have
// built it and each reply before they take it apart.
type tracedStage struct{ tr *tracer }

func (tracedStage) Name() string { return "bench-trace" }

func (s tracedStage) Process(dir channel.Direction, m *wire.Message) error {
	tr := s.tr
	if !tr.on.Load() {
		return nil
	}
	t := tr.now()
	key := opKey{m.BindingID, m.Correlation}
	if dir == channel.Outbound {
		tr.bound[bStageOut].add(t)
		if tr.capture.Load() && len(m.Args) > 0 {
			name, _ := m.Args[0].AsString()
			if slot := tr.byName[name]; slot != nil {
				if op := slot.cur.Load(); op != nil {
					op.mark(bStageOut, t)
					tr.file(key, op)
				}
			}
		}
		return nil
	}
	tr.bound[bStageIn].add(t)
	if tr.capture.Load() {
		if op := tr.find(key); op != nil {
			op.mark(bStageIn, t)
			tr.unfile(key)
		}
	}
	return nil
}

// tracedHandler times the servant. A handler is not told which binding
// called it; the bank requests carry the caller's customer name first.
type tracedHandler struct {
	inner channel.Handler
	tr    *tracer
}

func (h tracedHandler) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	tr := h.tr
	if !tr.on.Load() {
		return h.inner.Invoke(ctx, op, args)
	}
	t0 := tr.now()
	term, res, err := h.inner.Invoke(ctx, op, args)
	t1 := tr.now()
	tr.bound[bHandlerIn].add(t0)
	tr.bound[bHandlerOut].add(t1)
	if tr.capture.Load() && len(args) > 0 {
		name, _ := args[0].AsString()
		if slot := tr.byName[name]; slot != nil {
			if o := slot.cur.Load(); o != nil {
				o.mark(bHandlerIn, t0)
				o.mark(bHandlerOut, t1)
			}
		}
	}
	return term, res, err
}

// ---------------------------------------------------------------------------
// trader.Shard

type tracedShard struct {
	inner trader.Shard
	tr    *tracer
}

func (s tracedShard) Import(req trader.ImportRequest) ([]trader.Offer, error) {
	if !s.tr.on.Load() {
		return s.inner.Import(req)
	}
	t0 := s.tr.now()
	offers, err := s.inner.Import(req)
	t1 := s.tr.now()
	s.tr.dur[dShardImport].add(t1 - t0)
	if op := s.tr.sampled.Load(); op != nil {
		op.add("trader.shard.import", t0, t1)
	}
	return offers, err
}

func (s tracedShard) Export(serviceType string, ref naming.InterfaceRef, props values.Value) (string, error) {
	return s.inner.Export(serviceType, ref, props)
}

func (s tracedShard) Withdraw(offerID string) error { return s.inner.Withdraw(offerID) }

func (s tracedShard) Install(o trader.Offer) error { return s.inner.Install(o) }

// ---------------------------------------------------------------------------
// typerepo.Repository

// tracedRepo times the reads the trading path makes of the type
// repository; writes pass through.
type tracedRepo struct {
	typerepo.Repository
	tr *tracer
}

func (r tracedRepo) read(t0 int64) {
	t1 := r.tr.now()
	r.tr.dur[dRepoRead].add(t1 - t0)
	if op := r.tr.sampled.Load(); op != nil {
		op.add("typerepo.read", t0, t1)
	}
}

func (r tracedRepo) LookupInterface(name string) (*types.Interface, error) {
	if !r.tr.on.Load() {
		return r.Repository.LookupInterface(name)
	}
	defer r.read(r.tr.now())
	return r.Repository.LookupInterface(name)
}

func (r tracedRepo) IsSubtype(sub, super string) (bool, error) {
	if !r.tr.on.Load() {
		return r.Repository.IsSubtype(sub, super)
	}
	defer r.read(r.tr.now())
	return r.Repository.IsSubtype(sub, super)
}

func (r tracedRepo) Gen() uint64 {
	if !r.tr.on.Load() {
		return r.Repository.Gen()
	}
	defer r.read(r.tr.now())
	return r.Repository.Gen()
}
