package netsim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// startPair returns a dialed client connection and the server-side
// accepted connection of one loopback TCP connection.
func startPair(t *testing.T) (client, server Conn) {
	t.Helper()
	tr := NewTCP()
	l, err := tr.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	client, err = tr.Dial(context.Background(), l.Endpoint())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	server = <-accepted
	t.Cleanup(func() { server.Close() })
	return client, server
}

// testFrames builds a deterministic set of frames with sizes spanning
// tiny (1 byte) to larger than the read buffer, so batches cross every
// interesting boundary.
func testFrames(n int) [][]byte {
	rng := rand.New(rand.NewSource(42))
	frames := make([][]byte, n)
	for i := range frames {
		var size int
		switch i % 5 {
		case 0:
			size = 1
		case 1:
			size = 1 + rng.Intn(64)
		case 2:
			size = 1 + rng.Intn(4096)
		case 3:
			size = 32 << 10 // half the 64KB read buffer
		default:
			size = 80 << 10 // larger than the read buffer
		}
		f := make([]byte, size)
		rng.Read(f)
		frames[i] = f
	}
	return frames
}

func sameFrames(t *testing.T, label string, want, got [][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: received %d frames, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("%s: frame %d differs (len %d vs %d)", label, i, len(want[i]), len(got[i]))
		}
	}
}

// TestBatchBoundariesPreserveFrameSequence is the batching property test:
// however the sender carves the same logical frame sequence into batches
// — one frame per Send, or SendBatch with every partition width — the
// receiver observes the byte-identical ordered frame sequence. Batching
// may only change syscall count, never the stream.
func TestBatchBoundariesPreserveFrameSequence(t *testing.T) {
	frames := testFrames(40)

	// Baseline: one Send per frame on the plain transport.
	client, server := startPair(t)
	done := make(chan [][]byte, 1)
	go func() { done <- recvHelper(t, server, len(frames)) }()
	for _, f := range frames {
		if err := client.Send(f); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	baseline := <-done
	sameFrames(t, "per-frame", frames, baseline)

	// SendBatch with several partition widths, including a width of 1
	// (degenerate batch) and one batch holding everything.
	for _, width := range []int{1, 2, 3, 7, len(frames)} {
		client, server := startPair(t)
		done := make(chan [][]byte, 1)
		go func() { done <- recvHelper(t, server, len(frames)) }()
		bs, ok := client.(BatchSender)
		if !ok {
			t.Fatal("tcp conn does not implement BatchSender")
		}
		for i := 0; i < len(frames); i += width {
			end := i + width
			if end > len(frames) {
				end = len(frames)
			}
			if err := bs.SendBatch(frames[i:end]); err != nil {
				t.Fatalf("SendBatch width=%d: %v", width, err)
			}
		}
		sameFrames(t, fmt.Sprintf("batch width %d", width), frames, <-done)
	}
}

// TestSendBatchEmptyAndOversize pins the edge cases: an empty batch is a
// no-op and an oversized frame is rejected before any byte departs.
func TestSendBatchEmptyAndOversize(t *testing.T) {
	client, server := startPair(t)
	bs := client.(BatchSender)
	if err := bs.SendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	huge := make([]byte, maxFrame+1)
	if err := bs.SendBatch([][]byte{{1}, huge}); err == nil {
		t.Fatal("oversized frame in batch accepted")
	}
	// The connection is still usable and the rejected batch sent nothing.
	if err := client.Send([]byte("after")); err != nil {
		t.Fatalf("Send after rejected batch: %v", err)
	}
	f, err := server.Recv()
	if err != nil || string(f) != "after" {
		t.Fatalf("Recv = %q, %v; want \"after\"", f, err)
	}
}

// recvHelper is recvAll without t.Helper fatalities racing the sender
// goroutine: it reports failures through the returned slice length.
func recvHelper(t *testing.T, conn Conn, n int) [][]byte {
	got := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		f, err := conn.Recv()
		if err != nil {
			t.Errorf("Recv %d: %v", i, err)
			return got
		}
		got = append(got, append([]byte(nil), f...))
	}
	return got
}
