package channel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/values"
	"repro/internal/wire"
)

// gateConn is a stub connection whose writes wedge: Send blocks until the
// test releases the gate (and then succeeds), so frames accepted by the
// send queue stay stranded there — in flight or pending — for as long as
// the test wants. Recv blocks until Close, then fails, which is how the
// session's read loop observes teardown.
type gateConn struct {
	gate      chan struct{} // closed by the test to let writes through
	dead      chan struct{} // closed by Close
	entered   chan struct{} // closed when the first Send is reached
	enterOnce sync.Once
	closeOnce sync.Once
}

func newGateConn() *gateConn {
	return &gateConn{
		gate:    make(chan struct{}),
		dead:    make(chan struct{}),
		entered: make(chan struct{}),
	}
}

func (c *gateConn) Send(frame []byte) error {
	c.enterOnce.Do(func() { close(c.entered) })
	<-c.gate // wedged, not failed: teardown must not depend on a write error
	return nil
}

func (c *gateConn) Recv() ([]byte, error) {
	<-c.dead
	return nil, errors.New("gateconn: closed")
}

func (c *gateConn) Close() error {
	c.closeOnce.Do(func() { close(c.dead) })
	return nil
}

// gateTransport dials the one wedged connection, whatever the endpoint.
type gateTransport struct{ conn *gateConn }

func (t *gateTransport) Dial(context.Context, naming.Endpoint) (netsim.Conn, error) {
	return t.conn, nil
}

func (t *gateTransport) Listen(naming.Endpoint) (netsim.Listener, error) {
	return nil, errors.New("gatetransport: listen unsupported")
}

// TestOneWaysStrandedAtTeardownSurfaceErrSessionClosing pins the satellite
// contract: a one-way accepted by the session's send queue but still
// unwritten when the session tears down must surface ErrSessionClosing —
// not hang, and not report success — and the error must keep matching
// ErrDisconnected so retry policy treats it like any broken wire. The
// Flow that found the queue idle is its writer: it stays in the wedged
// write, and returns nil once the write (and the announcement's behind
// it) does.
func TestOneWaysStrandedAtTeardownSurfaceErrSessionClosing(t *testing.T) {
	conn := newGateConn()
	tr := &gateTransport{conn: conn}
	mgr := NewSessionManager(tr)
	ref := naming.InterfaceRef{ID: ifaceID(11), TypeName: "S", Endpoint: "stub://peer"}
	b, err := Bind(ref, BindConfig{Transport: tr, Sessions: mgr})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	openGate := sync.OnceFunc(func() { close(conn.gate) })
	defer openGate() // unwedge the writer so background teardown finishes

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// First one-way: it finds the queue idle, so its caller writes the
	// frame and wedges in Send.
	flowErr := make(chan error, 1)
	go func() { flowErr <- b.Flow(ctx, "video", values.Int(1)) }()
	select {
	case <-conn.entered:
	case <-ctx.Done():
		t.Fatal("the writer never reached the wedged write")
	}
	// Second one-way: queued behind the wedged write, blocked in flush.
	annErr := make(chan error, 1)
	go func() { annErr <- b.Announce(ctx, "hangup", nil) }()
	sess := mgr.peek("stub://peer")
	if sess == nil {
		t.Fatal("no live session")
	}
	waitFor(t, func() bool {
		sess.q.mu.Lock()
		defer sess.q.mu.Unlock()
		return len(sess.q.pend) == 1
	})

	// Graceful teardown with the announcement stranded: its flush must wake
	// with the typed closing error immediately, not wait out the write.
	mgr.Close()

	select {
	case err := <-annErr:
		if !errors.Is(err, ErrSessionClosing) {
			t.Errorf("announcement stranded at teardown = %v, want ErrSessionClosing", err)
		}
		if !errors.Is(err, ErrDisconnected) {
			t.Errorf("announcement teardown error lost ErrDisconnected: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("announcement never returned after session teardown")
	}

	// The Flow returns when its write does, and every frame it took on
	// was written.
	openGate()
	select {
	case err := <-flowErr:
		if err != nil {
			t.Errorf("Flow that wrote its frame = %v, want nil", err)
		}
	case <-ctx.Done():
		t.Fatal("Flow never returned after its write did")
	}
}

// stuckPeerConn is a server's connection to a peer that stopped reading:
// it delivers one call, every write then blocks until Close, and once a
// write is blocked the next read fails with the connection still open —
// as a TCP read does on an over-long length prefix.
type stuckPeerConn struct {
	call      []byte
	reads     atomic.Int32
	blocked   chan struct{} // closed when the first Send blocks
	dead      chan struct{} // closed by Close
	blockOnce sync.Once
	closeOnce sync.Once
}

func (c *stuckPeerConn) Recv() ([]byte, error) {
	if c.reads.Add(1) == 1 {
		return c.call, nil
	}
	<-c.blocked
	return nil, errors.New("stuckpeer: frame of 4294967295 bytes exceeds limit")
}

func (c *stuckPeerConn) Send([]byte) error {
	c.blockOnce.Do(func() { close(c.blocked) })
	<-c.dead
	return netsim.ErrClosed
}

func (c *stuckPeerConn) Close() error {
	c.closeOnce.Do(func() { close(c.dead) })
	return nil
}

// oneConnListener accepts its one connection, then blocks until closed.
type oneConnListener struct {
	conn      netsim.Conn
	accepted  atomic.Bool
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *oneConnListener) Accept() (netsim.Conn, error) {
	if l.accepted.CompareAndSwap(false, true) {
		return l.conn, nil
	}
	<-l.closed
	return nil, netsim.ErrClosed
}

func (l *oneConnListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *oneConnListener) Endpoint() naming.Endpoint { return "stub://server" }

// TestServerCloseDoesNotWaitOnAStuckPeer: a connection whose reply write
// is blocked by a peer that stopped reading, and whose read loop then
// fails, is closed by its own teardown — which unblocks the write — so
// Server.Close returns instead of waiting forever on a connection it no
// longer tracks.
func TestServerCloseDoesNotWaitOnAStuckPeer(t *testing.T) {
	call := &wire.Message{Kind: wire.Call, BindingID: 3, Correlation: 1, Target: ifaceID(42), Operation: "Ping"}
	frame, err := call.EncodeAppend(wire.GetFrame(call.SizeHint()), wire.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	conn := &stuckPeerConn{call: frame, blocked: make(chan struct{}), dead: make(chan struct{})}
	t.Cleanup(func() { conn.Close() }) // lets a hung server go at the end of a failed run
	srv := NewServer(&oneConnListener{conn: conn, closed: make(chan struct{})}, ServerConfig{})
	if err := srv.Register(ifaceID(42), nil, HandlerFunc(
		func(context.Context, string, []values.Value) (string, []values.Value, error) {
			return "OK", nil, nil
		})); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	select {
	case <-conn.blocked:
	case <-time.After(3 * time.Second):
		t.Fatal("the reply never reached the stuck write")
	}
	// The read loop has failed once the server stops counting the
	// connection as open.
	waitFor(t, func() bool { return srv.Stats().Open == 0 })
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Server.Close had not returned after 3 s: teardown waits on a peer that stopped reading")
	}
}
