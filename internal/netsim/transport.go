// Package netsim provides the communications substrate beneath protocol
// objects: the "communications interface" at the bottom of Figure 4 of the
// tutorial.
//
// Two transports are provided. The simulated network (New) is an in-memory,
// deterministic network with configurable per-link latency, jitter, loss,
// duplication and partitions; it lets every experiment in EXPERIMENTS.md
// run on one machine while still exercising the failure modes that the
// distribution transparencies exist to mask. The TCP transport (NewTCP)
// carries the identical frame streams over real loopback sockets, as a
// check that nothing in the stack depends on the simulation.
//
// Frames are opaque byte slices; framing of values into frames is package
// wire's job, and interpretation is the protocol object's (package channel).
package netsim

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/naming"
)

// Transport error sentinels.
var (
	ErrClosed        = errors.New("netsim: closed")
	ErrNoSuchHost    = errors.New("netsim: no listener at endpoint")
	ErrUnknownScheme = errors.New("netsim: unknown endpoint scheme")
	// ErrBacklogFull reports that a listener's accept backlog stayed full
	// for the whole dial grace period — the server exists but is not
	// draining connections (e.g. a session storm). Distinct from a
	// partition (which hangs) and from ErrNoSuchHost (nothing listening).
	ErrBacklogFull = errors.New("netsim: accept backlog full")
)

// Conn is one bidirectional frame stream between two endpoints.
// Send and Recv are safe for concurrent use; Recv returns ErrClosed after
// Close (local or remote).
type Conn interface {
	// Send enqueues one frame for delivery to the peer. A nil error means
	// the frame was accepted by the local end, not that it will arrive:
	// lossy links may drop it silently, exactly like a datagram network.
	// The implementation must not retain frame after Send returns, so the
	// caller is free to reuse or recycle the buffer.
	Send(frame []byte) error
	// Recv blocks until a frame arrives or the connection closes. The
	// returned slice is owned by the caller, which may recycle it (e.g.
	// via wire.PutFrame) once no decoded view of it can escape.
	Recv() ([]byte, error)
	// Close tears down both directions.
	Close() error
}

// Flusher has no implementation and no caller in this module any more; the
// declaration stays only because the frozen bench/decorators.go names it.
type Flusher interface {
	Flush() error
}

// BatchSender is implemented by connections that can transmit several
// frames in one underlying write (vectored I/O on the TCP transport). The
// frames are delivered in order, framed exactly as if each had been passed
// to Send individually — batching changes the syscall count, never the
// byte stream the peer observes. Like Send, implementations must not
// retain the slices after SendBatch returns, so callers may recycle the
// buffers immediately. Senders that batch (package channel's session
// sender) probe for this interface and fall back to per-frame Send when a
// transport does not provide it.
type BatchSender interface {
	SendBatch(frames [][]byte) error
}

// Listener accepts inbound connections at an endpoint.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Endpoint() naming.Endpoint
}

// Transport creates connections and listeners for one endpoint scheme.
type Transport interface {
	Dial(ctx context.Context, ep naming.Endpoint) (Conn, error)
	Listen(ep naming.Endpoint) (Listener, error)
}

// Registry routes Dial and Listen calls to the transport registered for
// the endpoint's scheme. A Registry is safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	transports map[string]Transport
}

// NewRegistry returns an empty transport registry.
func NewRegistry() *Registry {
	return &Registry{transports: make(map[string]Transport)}
}

// Register installs a transport for a scheme ("sim", "tcp", ...),
// replacing any previous registration.
func (r *Registry) Register(scheme string, t Transport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.transports[scheme] = t
}

// ForScheme returns the transport registered for scheme.
func (r *Registry) ForScheme(scheme string) (Transport, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.transports[scheme]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, scheme)
	}
	return t, nil
}

// Dial connects to ep using the transport matching its scheme.
func (r *Registry) Dial(ctx context.Context, ep naming.Endpoint) (Conn, error) {
	t, err := r.ForScheme(ep.Scheme())
	if err != nil {
		return nil, err
	}
	return t.Dial(ctx, ep)
}

// Listen opens a listener at ep using the transport matching its scheme.
func (r *Registry) Listen(ep naming.Endpoint) (Listener, error) {
	t, err := r.ForScheme(ep.Scheme())
	if err != nil {
		return nil, err
	}
	return t.Listen(ep)
}
