package netsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/naming"
)

// startEcho listens at ep on the network and echoes every frame back on
// each accepted connection until the listener closes.
func startEcho(t *testing.T, n *Network, ep naming.Endpoint) Listener {
	t.Helper()
	l, err := n.Listen(ep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					f, err := conn.Recv()
					if err != nil {
						return
					}
					if err := conn.Send(f); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

func TestSimEcho(t *testing.T) {
	n := New(1)
	startEcho(t, n, "sim://server")
	conn, err := n.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		msg := []byte(fmt.Sprintf("frame-%d", i))
		if err := conn.Send(msg); err != nil {
			t.Fatalf("Send: %v", err)
		}
		got, err := conn.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if string(got) != string(msg) {
			t.Errorf("echo = %q, want %q", got, msg)
		}
	}
	st := n.Stats()
	if st.Sent != 20 || st.Delivered != 20 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimEndpoints(t *testing.T) {
	n := New(1)
	l := startEcho(t, n, "sim://server")
	if l.Endpoint() != "sim://server" {
		t.Errorf("listener endpoint = %q", l.Endpoint())
	}
	conn, err := n.DialFrom(context.Background(), "alpha", "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
}

func TestSimDialNoListener(t *testing.T) {
	n := New(1)
	_, err := n.Dial(context.Background(), "sim://ghost")
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, ErrNoSuchHost) {
		t.Errorf("error %v should be ErrNoSuchHost", err)
	}
}

func TestSimListenTwice(t *testing.T) {
	n := New(1)
	startEcho(t, n, "sim://server")
	if _, err := n.Listen("sim://server"); err == nil {
		t.Error("second Listen at same endpoint should fail")
	}
}

func TestSimListenerCloseFreesEndpoint(t *testing.T) {
	n := New(1)
	l, err := n.Listen("sim://x")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	l2, err := n.Listen("sim://x")
	if err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
	l2.Close()
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("Accept after close = %v", err)
	}
}

func TestSimConnClose(t *testing.T) {
	n := New(1)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serverConns := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			serverConns <- c
		}
	}()
	conn, err := n.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	server := <-serverConns
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v", err)
	}
	if _, err := conn.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after close = %v", err)
	}
	// The peer side must observe the close too.
	if _, err := server.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("peer Recv after close = %v", err)
	}
}

func TestSimDropRate(t *testing.T) {
	n := New(42)
	n.SetLink("client", "server", LinkProfile{DropRate: 1.0})
	startEcho(t, n, "sim://server")
	conn, err := n.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		if err := conn.Send([]byte("lost")); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Dropped != 5 || st.Delivered != 0 {
		t.Errorf("stats = %+v, want 5 dropped / 0 delivered", st)
	}
}

func TestSimDuplication(t *testing.T) {
	n := New(7)
	n.SetLink("client", "server", LinkProfile{DupRate: 1.0, Latency: time.Microsecond})
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := n.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := <-accepted
	if err := conn.Send([]byte("once")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if string(got) != "once" {
			t.Errorf("Recv %d = %q", i, got)
		}
	}
}

func TestSimLatencyOrdering(t *testing.T) {
	// Even with jitter, frames on one direction arrive in FIFO order.
	n := New(3)
	n.SetLink("client", "server", LinkProfile{Latency: time.Millisecond, Jitter: 2 * time.Millisecond})
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := n.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := <-accepted
	const k = 20
	start := time.Now()
	for i := 0; i < k; i++ {
		if err := conn.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("frame %d arrived out of order: %d", i, got[0])
		}
	}
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
}

// TestSimLatencyIsPipelined: a link's latency delays every frame, it does
// not space them — 50 back-to-back frames over a 5 ms link all arrive, in
// order, about 5 ms after they were sent (250 ms if each waited out its
// own latency behind the previous one).
func TestSimLatencyIsPipelined(t *testing.T) {
	n := New(3)
	n.SetLink("client", "server", LinkProfile{Latency: 5 * time.Millisecond})
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := n.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := <-accepted
	const k = 50
	start := time.Now()
	for i := 0; i < k; i++ {
		if err := conn.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("frame %d arrived out of order: %d", i, got[0])
		}
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond || elapsed > 100*time.Millisecond {
		t.Errorf("%d frames over a 5ms link took %v, want about 5ms", k, elapsed)
	}
}

func TestSimPartition(t *testing.T) {
	n := New(5)
	startEcho(t, n, "sim://server")
	conn, err := n.DialFrom(context.Background(), "alpha", "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Sanity: traffic flows before the partition.
	if err := conn.Send([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}

	n.Partition("alpha", "server")
	if err := conn.Send([]byte("during")); err != nil {
		t.Fatal(err) // black-holed, not an error
	}
	if got := n.Stats().Dropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	// New connections across the partition hang until the context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := n.DialFrom(ctx, "alpha", "sim://server"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("dial across partition = %v", err)
	}

	n.Heal("alpha", "server")
	if err := conn.Send([]byte("post")); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Recv()
	if err != nil || string(got) != "post" {
		t.Errorf("after heal: %q, %v", got, err)
	}
}

func TestSimDialContextCancelled(t *testing.T) {
	n := New(1)
	l, err := n.Listen("sim://busy")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Fill the accept backlog so Dial blocks, then cancel.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	for i := 0; i < 64; i++ {
		if _, err := n.Dial(ctx, "sim://busy"); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("unexpected dial error: %v", err)
			}
			return // backlog filled and the context expired: expected
		}
	}
	t.Fatal("backlog never filled")
}

func TestSimConcurrentSenders(t *testing.T) {
	n := New(9)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := n.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := <-accepted

	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := conn.Send([]byte("m")); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		if _, err := server.Recv(); err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	n := New(1)
	r.Register("sim", n)
	startEcho(t, n, "sim://server")
	conn, err := r.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if got, err := conn.Recv(); err != nil || string(got) != "hi" {
		t.Errorf("echo via registry = %q, %v", got, err)
	}
	if _, err := r.Dial(context.Background(), "quic://x"); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("unknown scheme dial = %v", err)
	}
	if _, err := r.Listen("quic://x"); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("unknown scheme listen = %v", err)
	}
	if _, err := r.ForScheme("sim"); err != nil {
		t.Errorf("ForScheme(sim) = %v", err)
	}
	if l, err := r.Listen("sim://other"); err != nil {
		t.Errorf("Listen via registry: %v", err)
	} else {
		l.Close()
	}
}
