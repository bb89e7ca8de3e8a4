package netsim

import (
	"context"
	"errors"
	"testing"
)

func TestTCPEcho(t *testing.T) {
	tr := NewTCP()
	l, err := tr.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	if l.Endpoint().Scheme() != "tcp" {
		t.Errorf("endpoint = %q", l.Endpoint())
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
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

	conn, err := tr.Dial(context.Background(), l.Endpoint())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	payloads := [][]byte{
		[]byte("hello"),
		{},
		make([]byte, 100_000), // larger than one segment
	}
	for _, p := range payloads {
		if err := conn.Send(p); err != nil {
			t.Fatalf("Send: %v", err)
		}
		got, err := conn.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if len(got) != len(p) {
			t.Errorf("echo len = %d, want %d", len(got), len(p))
		}
	}
}

func TestTCPDialFailure(t *testing.T) {
	tr := NewTCP()
	// Port 1 on localhost is almost certainly closed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Dial(ctx, "tcp://127.0.0.1:1"); err == nil {
		t.Error("expected dial failure")
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	tr := NewTCP()
	l, err := tr.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.Close()
	}()
	conn, err := tr.Dial(context.Background(), l.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after peer close = %v, want ErrClosed", err)
	}
}

func TestTCPOversizedFrameRejected(t *testing.T) {
	tr := NewTCP()
	l, err := tr.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Recv() //nolint:errcheck // draining only
	}()
	conn, err := tr.Dial(context.Background(), l.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized Send should fail")
	}
}
