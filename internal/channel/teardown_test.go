package channel

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/values"
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
// not hang, and not report success — from both the Flow and Signal paths,
// and the error must keep matching ErrDisconnected so retry policy treats
// it like any broken wire.
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
	defer close(conn.gate) // unwedge the sender so background teardown finishes

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// First one-way: the sender goroutine takes its frame and wedges in
	// Send, leaving Flow blocked in flush.
	flowErr := make(chan error, 1)
	go func() { flowErr <- b.Flow(ctx, "video", values.Int(1)) }()
	select {
	case <-conn.entered:
	case <-ctx.Done():
		t.Fatal("sender never reached the wedged write")
	}
	// Second one-way: queued behind the wedged write, blocked in flush too.
	sigErr := make(chan error, 1)
	go func() { sigErr <- b.Signal(ctx, "hangup", nil) }()
	waitFor(t, func() bool { return b.Stats().OneWayQueued == 2 })

	// Graceful teardown with both frames stranded: flush waiters must wake
	// with the typed closing error immediately, not wait out the write.
	mgr.Close()

	for name, ch := range map[string]chan error{"Flow": flowErr, "Signal": sigErr} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrSessionClosing) {
				t.Errorf("%s stranded at teardown = %v, want ErrSessionClosing", name, err)
			}
			if !errors.Is(err, ErrDisconnected) {
				t.Errorf("%s teardown error lost ErrDisconnected: %v", name, err)
			}
		case <-ctx.Done():
			t.Fatalf("%s never returned after session teardown", name)
		}
	}
}
