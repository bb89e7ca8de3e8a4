package netsim

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/naming"
)

// maxFrame bounds a single TCP frame; larger length prefixes indicate
// corruption or a hostile peer.
const maxFrame = 64 << 20

// TCP is the real-network transport: frames travel length-prefixed over
// TCP connections. Endpoints have the form "tcp://host:port". Writes are
// direct; batching is the caller's business (package channel's session
// send queue hands whole batches to SendBatch).
type TCP struct{}

var _ Transport = TCP{}

// NewTCP returns the TCP transport.
func NewTCP() TCP { return TCP{} }

// Dial connects to a TCP endpoint.
func (t TCP) Dial(ctx context.Context, ep naming.Endpoint) (Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", ep.Address())
	if err != nil {
		return nil, fmt.Errorf("netsim: dial %s: %w", ep, err)
	}
	return newTCPConn(nc), nil
}

// Listen opens a TCP listener. The address "tcp://127.0.0.1:0" asks the
// kernel for a free port; Listener.Endpoint reports the bound address.
func (t TCP) Listen(ep naming.Endpoint) (Listener, error) {
	nl, err := net.Listen("tcp", ep.Address())
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %s: %w", ep, err)
	}
	return &tcpListener{nl: nl}, nil
}

type tcpListener struct {
	nl net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, fmt.Errorf("netsim: accept: %w", err)
	}
	return newTCPConn(nc), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }

func (l *tcpListener) Endpoint() naming.Endpoint {
	return naming.Endpoint("tcp://" + l.nl.Addr().String())
}

type tcpConn struct {
	nc net.Conn

	readMu sync.Mutex
	// br buffers reads (guarded by readMu): when the peer batches frames
	// into one segment (SendBatch), the whole batch is pulled into the
	// buffer with one read syscall instead of two per frame — the
	// receive-side complement of the vectored write.
	br      *bufio.Reader
	rlenBuf [4]byte // guarded by readMu: a local would escape through io.ReadFull
	writeMu sync.Mutex

	// Vectored-write scratch, guarded by writeMu: the iovec slice handed to
	// net.Buffers and the backing store for the per-frame length prefixes,
	// both reused across batches, and the net.Buffers that WriteTo
	// consumes — a field, not a local, because WriteTo takes its address
	// through an interface, which would move a local to the heap on every
	// write.
	vecScratch net.Buffers
	lenScratch []byte
	out        net.Buffers
}

var (
	_ Conn        = (*tcpConn)(nil)
	_ BatchSender = (*tcpConn)(nil)
)

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
}

// Send writes one frame as a batch of one: its length prefix and payload
// leave in one writev.
func (c *tcpConn) Send(frame []byte) error { return c.SendBatch([][]byte{frame}) }

// SendBatch implements BatchSender: the frames depart in order as one
// vectored write (writev via net.Buffers), each length-prefixed exactly as
// Send would have framed it.
func (c *tcpConn) SendBatch(frames [][]byte) error {
	for _, f := range frames {
		if len(f) > maxFrame {
			return fmt.Errorf("netsim: frame of %d bytes exceeds limit", len(f))
		}
	}
	if len(frames) == 0 {
		return nil
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	// The length prefixes live in one reused scratch buffer; it must not
	// reallocate mid-loop or the already-taken sub-slices would go stale.
	if cap(c.lenScratch) < 4*len(frames) {
		c.lenScratch = make([]byte, 0, 4*len(frames))
	}
	c.lenScratch = c.lenScratch[:0]
	c.vecScratch = c.vecScratch[:0]
	for _, f := range frames {
		off := len(c.lenScratch)
		c.lenScratch = binary.BigEndian.AppendUint32(c.lenScratch, uint32(len(f)))
		c.vecScratch = append(c.vecScratch, c.lenScratch[off:off+4], f)
	}
	c.out = c.vecScratch
	_, err := c.out.WriteTo(c.nc)
	// WriteTo consumes the slice; drop the frame references so the scratch
	// does not pin recycled buffers until the next batch.
	clear(c.vecScratch)
	if err != nil {
		return fmt.Errorf("netsim: write batch: %w", err)
	}
	return nil
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if _, err := io.ReadFull(c.br, c.rlenBuf[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("netsim: read length: %w", err)
	}
	n := binary.BigEndian.Uint32(c.rlenBuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("netsim: frame of %d bytes exceeds limit", n)
	}
	frame := bufpool.Get(int(n))[:n]
	if _, err := io.ReadFull(c.br, frame); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("netsim: read frame: %w", err)
	}
	return frame, nil
}

func (c *tcpConn) Close() error { return c.nc.Close() }
