package stream

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/values"
)

// newTestInbound is an Inbound outside any session: its grants go nowhere.
func newTestInbound(window int) *Inbound {
	return &Inbound{
		c:      NewConsumer(ConsumerConfig{Window: window}),
		grant:  func(uint64, uint64) {},
		notify: make(chan struct{}, 1),
	}
}

// TestInboundSteadyStateAllocatesNothing: once its ring is made, a stream
// whose producer stays within its window buffers each batch and hands
// each element to Recv without allocating, however the batches wrap the
// ring.
func TestInboundSteadyStateAllocatesNothing(t *testing.T) {
	const window, batch = 32, 5
	in := newTestInbound(window)
	elems := make([]values.Value, batch)
	for i := range elems {
		elems[i] = values.Int(int64(i))
	}
	ctx := context.Background()
	var seq uint64
	round := func() {
		in.push(channel.StreamBatch{Phase: channel.StreamElems, Seq: seq, Elems: elems})
		seq += batch
		for i := 0; i < batch; i++ {
			if v, err := in.Recv(ctx); err != nil {
				t.Fatal(err)
			} else if got, _ := v.AsInt(); got != int64(i) {
				t.Fatalf("recv %d = %v", i, v)
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("push and Recv of a batch = %v allocs, want 0", allocs)
	}
	if st := in.Stats(); st.SeqGaps != 0 || st.Queued != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestInboundBuffersOverrun: a peer that sends past its credit is
// buffered in full and read back in order, whether the ring is empty,
// wrapped or full when the overrun arrives. A seeded run of batches of 0
// to 12 elements against a window of 8 is held to a plain FIFO.
func TestInboundBuffersOverrun(t *testing.T) {
	in := newTestInbound(8)
	r := rand.New(rand.NewSource(53))
	ctx := context.Background()
	var next, want int64
	var fifo []int64
	for step := 0; step < 2000; step++ {
		if r.Intn(2) == 0 {
			elems := make([]values.Value, r.Intn(13))
			for i := range elems {
				elems[i] = values.Int(next)
				fifo = append(fifo, next)
				next++
			}
			in.push(channel.StreamBatch{Phase: channel.StreamElems, Seq: uint64(next) - uint64(len(elems)), Elems: elems})
			continue
		}
		for n := r.Intn(10); n > 0 && len(fifo) > 0; n-- {
			v, err := in.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := v.AsInt(); got != want {
				t.Fatalf("step %d: recv %d, want %d", step, got, want)
			}
			fifo, want = fifo[1:], want+1
		}
		if q := in.Stats().Queued; q != len(fifo) {
			t.Fatalf("step %d: %d queued, want %d", step, q, len(fifo))
		}
	}
	if st := in.Stats(); st.Received != uint64(next) || st.SeqGaps != 0 {
		t.Errorf("stats %+v after %d elements", st, next)
	}
}

// TestGrantWithNoWaiterAllocatesNothing: a grant that finds no Send parked
// makes no channel, and a failure with none parked makes none either.
func TestGrantWithNoWaiterAllocatesNothing(t *testing.T) {
	g := new(creditGate)
	var n uint64
	if allocs := testing.AllocsPerRun(200, func() { n++; g.grant(n, n<<10) }); allocs != 0 {
		t.Errorf("grant with no waiter = %v allocs, want 0", allocs)
	}
	dead := errors.New("stream dead")
	if allocs := testing.AllocsPerRun(1, func() { g.fail(dead) }); allocs != 0 {
		t.Errorf("fail with no waiter = %v allocs, want 0", allocs)
	}
}

// TestParkedSendWakes: a Send parked on an empty window wakes on the next
// grant, and another wakes with the failure when the stream fails.
func TestParkedSendWakes(t *testing.T) {
	g := new(creditGate)
	g.grant(1, 1<<10)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.acquire(ctx, 100); err != nil {
		t.Fatal(err)
	}
	parked := func() <-chan error {
		done := make(chan error, 1)
		go func() { done <- g.acquire(ctx, 100) }()
		waitFor(t, func() bool { g.mu.Lock(); defer g.mu.Unlock(); return g.notify != nil },
			"Send never parked")
		return done
	}
	done := parked()
	g.grant(2, 2<<10)
	if err := <-done; err != nil {
		t.Fatalf("Send woken by a grant = %v", err)
	}
	done = parked()
	dead := errors.New("stream dead")
	g.fail(dead)
	if err := <-done; !errors.Is(err, dead) {
		t.Fatalf("Send woken by failure = %v, want %v", err, dead)
	}
	if stalls, _ := g.stallStats(); stalls != 2 {
		t.Errorf("stalls = %d, want 2", stalls)
	}
}
