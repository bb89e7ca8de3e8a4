package main

import (
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/netsim"
)

type plainConn struct{}

func (plainConn) Send([]byte) error               { return nil }
func (plainConn) Recv() ([]byte, error)           { return nil, netsim.ErrClosed }
func (plainConn) Close() error                    { return nil }
func (plainConn) RemoteEndpoint() naming.Endpoint { return "" }
func (plainConn) LocalEndpoint() naming.Endpoint  { return "" }

type batchConn struct {
	plainConn
	batches int
}

func (c *batchConn) SendBatch([][]byte) error { c.batches++; return nil }

type flushConn struct{ plainConn }

func (flushConn) Flush() error { return nil }

type bothConn struct {
	batchConn
	flushConn
}

func (c *bothConn) Send([]byte) error               { return nil }
func (c *bothConn) Recv() ([]byte, error)           { return nil, netsim.ErrClosed }
func (c *bothConn) Close() error                    { return nil }
func (c *bothConn) RemoteEndpoint() naming.Endpoint { return "" }
func (c *bothConn) LocalEndpoint() naming.Endpoint  { return "" }

// The wrapper must offer BatchSender and Flusher exactly when the wrapped
// conn does: the session sender picks its write path by probing for them.
func TestConnDecoratorKeepsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	cases := []struct {
		name         string
		conn         netsim.Conn
		batch, flush bool
	}{
		{"plain", plainConn{}, false, false},
		{"batch", &batchConn{}, true, false},
		{"flush", flushConn{}, false, true},
		{"both", &bothConn{}, true, true},
	}
	for _, c := range cases {
		w := wrapConn(c.conn, tr, false)
		if _, ok := w.(netsim.BatchSender); ok != c.batch {
			t.Errorf("%s: BatchSender offered = %v, want %v", c.name, ok, c.batch)
		}
		if _, ok := w.(netsim.Flusher); ok != c.flush {
			t.Errorf("%s: Flusher offered = %v, want %v", c.name, ok, c.flush)
		}
	}
	// A batch is one write of several frames, whether or not tracing is on.
	bc := &batchConn{}
	w := wrapConn(bc, tr, false).(netsim.BatchSender)
	if err := w.SendBatch([][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	tr.on.Store(true)
	if err := w.SendBatch([][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	if bc.batches != 2 || tr.writes.Load() != 1 || tr.frames.Load() != 3 {
		t.Fatalf("batches=%d writes=%d frames=%d", bc.batches, tr.writes.Load(), tr.frames.Load())
	}
}

// With the decorators on, the pipelined workload must still batch frames
// into vectored writes and the serial one must still write frame by frame;
// and on the serial one the layer means must add up to the latency.
func TestTracedRunsKeepTheDataPlane(t *testing.T) {
	cfg := runConfig{seed: 1, warm: 100 * time.Millisecond}
	run := func(name string) metrics {
		w, _ := findWorkload(name)
		res, err := runTraced(w, cfg, 200*time.Millisecond, 700*time.Millisecond, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s: %d of %d failed", name, res.Failed, res.Attempted)
		}
		return res.Metrics
	}
	serial := run("rpc_serial")
	if got := serial["netsim.frames_per_write"]; got != 1 {
		t.Errorf("rpc_serial frames_per_write = %v, want exactly 1", got)
	}
	if got := serial["loadgen.attribution_residual_share"]; got > 0.10 {
		t.Errorf("rpc_serial attribution residual = %v, want <= 0.10", got)
	}
	if serial["loadgen.trace_ops"] == 0 {
		t.Error("rpc_serial captured no spans")
	}
	pipelined := run("rpc_pipelined")
	if got := pipelined["netsim.frames_per_write"]; got <= 1 {
		t.Errorf("rpc_pipelined frames_per_write = %v, want > 1", got)
	}
}
