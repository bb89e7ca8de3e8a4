package netsim

import (
	"context"
	"testing"
	"time"
)

func TestDefaultLinkProfileApplies(t *testing.T) {
	n := New(7)
	n.SetDefaultLink(LinkProfile{DropRate: 1.0})
	startEcho(t, n, "sim://server")
	conn, err := n.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if err := conn.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if st := n.Stats(); st.Dropped != 3 {
		t.Errorf("dropped = %d, want 3 (default profile)", st.Dropped)
	}
	// Explicit per-link profiles override the default (both directions,
	// since the echo reply crosses the reverse link).
	n.SetLink("client", "server", LinkProfile{})
	n.SetLink("server", "client", LinkProfile{})
	if err := conn.Send([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if got, err := conn.Recv(); err != nil || string(got) != "y" {
		t.Errorf("override echo = %q, %v", got, err)
	}
}

func TestFromTransportView(t *testing.T) {
	n := New(7)
	startEcho(t, n, "sim://server")
	view := n.From("alpha")
	// Listen through the view lands on the shared network.
	l, err := view.Listen("sim://alpha-svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Dial through the view attributes traffic to "alpha": partition it.
	n.Partition("alpha", "server")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := view.Dial(ctx, "sim://server"); err == nil {
		t.Error("dial across partition should time out")
	}
	n.Heal("alpha", "server")
	conn, err := view.Dial(context.Background(), "sim://server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
}

func TestBandwidthDelaysLargeFrames(t *testing.T) {
	n := New(7)
	// 1 MB/s: a 10 KB frame should take ~10ms.
	n.SetLink("client", "server", LinkProfile{Bandwidth: 1 << 20})
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
	start := time.Now()
	if err := conn.Send(make([]byte, 10<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("10KB over 1MB/s took %v, want >= ~10ms", elapsed)
	}
}

func TestErrorMessages(t *testing.T) {
	n := New(1)
	l, err := n.Listen("sim://x")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, err = n.Listen("sim://x")
	if err == nil || err.Error() != "netsim: address in use: x" {
		t.Errorf("addr-in-use = %v", err)
	}
	_, err = n.Dial(context.Background(), "sim://ghost")
	if err == nil || err.Error() != "netsim: no listener at endpoint: ghost" {
		t.Errorf("no-listener = %v", err)
	}
}

func TestDeliverAfterCloseDropped(t *testing.T) {
	// A delayed frame arriving after the receiver closed is counted as
	// dropped, not delivered.
	n := New(7)
	n.SetLink("client", "server", LinkProfile{Latency: 20 * time.Millisecond})
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
	server := <-accepted
	if err := conn.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	server.Close() // closes both ends before the 20ms delivery fires
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n.Stats().Dropped >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("stats = %+v, want the late frame dropped", n.Stats())
}
