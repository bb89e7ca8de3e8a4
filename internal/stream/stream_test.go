package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/types"
	"repro/internal/values"
)

func feedType() *types.Interface {
	return types.StreamInterface("Feed",
		types.FlowOf("ticks", types.Producer, values.TInt()))
}

func ifaceID(nonce uint64) naming.InterfaceID {
	return naming.InterfaceID{
		Object: naming.ObjectID{
			Cluster: naming.ClusterID{Capsule: naming.CapsuleID{Node: "server", Seq: 0}, Seq: 0},
		},
		Nonce: nonce,
	}
}

type env struct {
	net  *netsim.Network
	srv  *channel.Server
	cons *Consumer
	ref  naming.InterfaceRef
}

func newEnv(t *testing.T, ccfg ConsumerConfig) *env {
	t.Helper()
	n := netsim.New(1)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := channel.NewServer(l, channel.ServerConfig{})
	cons := NewConsumer(ccfg)
	id := ifaceID(77)
	if err := srv.Register(id, feedType(), cons); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close(); cons.Close() })
	return &env{net: n, srv: srv, cons: cons,
		ref: naming.InterfaceRef{ID: id, TypeName: "Feed", Endpoint: "sim://server"}}
}

func (e *env) bind(t *testing.T) *channel.Binding {
	t.Helper()
	b, err := channel.Bind(e.ref, channel.BindConfig{Transport: e.net, Type: feedType()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestStreamEndToEnd(t *testing.T) {
	e := newEnv(t, ConsumerConfig{Window: 32})
	b := e.bind(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	p, err := Open(ctx, b, "ticks", ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := p.Send(ctx, values.Int(int64(i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		if err := p.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	in, err := e.cons.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if in.Flow() != "ticks" {
		t.Fatalf("flow = %q", in.Flow())
	}
	for i := 0; i < total; i++ {
		v, err := in.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got, _ := v.AsInt(); got != int64(i) {
			t.Fatalf("recv %d: got %d — FIFO violated", i, got)
		}
	}
	if _, err := in.Recv(ctx); err != io.EOF {
		t.Fatalf("after EOS: %v, want io.EOF", err)
	}
	wg.Wait()

	st := in.Stats()
	if st.SeqGaps != 0 {
		t.Fatalf("seq gaps: %d", st.SeqGaps)
	}
	if st.Received != total || st.Consumed != total {
		t.Fatalf("stats: %+v", st)
	}
	// The memory ceiling: the consumer never buffered more than the window.
	if st.MaxQueued > 32 {
		t.Fatalf("max queued %d exceeds window 32", st.MaxQueued)
	}
	ps := p.Stats()
	if ps.Sent != total {
		t.Fatalf("producer sent %d", ps.Sent)
	}
	if ps.Batches == 0 || ps.Batches > total {
		t.Fatalf("batches %d", ps.Batches)
	}
	ss := e.srv.Stats()
	if ss.FlowTypeErrors != 0 {
		t.Fatalf("flow type errors: %d", ss.FlowTypeErrors)
	}
	if ss.CreditGrants == 0 {
		t.Fatal("no credit grants recorded")
	}
}

// TestBorrowedElemsConsumerValuesIntact: a batch's elements are borrowed
// from the server's received message until StreamBatch returns, so the
// consumer copies the values into its queue. Every batch is delivered, and
// its message recycled into the next batch's decode, before anything is
// received; each element still reads back as sent.
func TestBorrowedElemsConsumerValuesIntact(t *testing.T) {
	namesType := types.StreamInterface("Names",
		types.FlowOf("names", types.Producer, values.TString()))
	n := netsim.New(1)
	l, err := n.Listen("sim://server")
	if err != nil {
		t.Fatal(err)
	}
	srv := channel.NewServer(l, channel.ServerConfig{})
	const groups, perGroup = 8, 8
	cons := NewConsumer(ConsumerConfig{Window: groups * perGroup})
	id := ifaceID(78)
	if err := srv.Register(id, namesType, cons); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() { srv.Close(); cons.Close() }()
	b, err := channel.Bind(naming.InterfaceRef{ID: id, TypeName: "Names", Endpoint: "sim://server"},
		channel.BindConfig{Transport: n, Type: namesType})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p, err := Open(ctx, b, "names", ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	in, err := cons.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			if err := p.Send(ctx, values.Str(fmt.Sprintf("name-%d", g*perGroup+i))); err != nil {
				t.Fatal(err)
			}
		}
		want := uint64((g + 1) * perGroup)
		waitFor(t, func() bool { return in.Stats().Received == want }, "received %+v, want %d", in.Stats(), want)
	}
	for i := 0; i < groups*perGroup; i++ {
		v, err := in.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got, _ := v.AsString(); got != fmt.Sprintf("name-%d", i) {
			t.Fatalf("recv %d: got %v", i, v)
		}
	}
}

// TestDrainedStreamLeavesTheTable: a finished stream stays in its
// consumer's stream table while elements are buffered and leaves it with
// the last Recv, and each stream's counts follow what was read from it.
func TestDrainedStreamLeavesTheTable(t *testing.T) {
	e := newEnv(t, ConsumerConfig{Window: 32})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const n = 10
	var ins []*Inbound
	for i := 0; i < 2; i++ {
		p, err := Open(ctx, e.bind(t), "ticks", ProducerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if err := p.Send(ctx, values.Int(int64(j))); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		in, err := e.cons.Accept(ctx)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return in.Stats().Received == n }, "elements never arrived: %+v", in.Stats())
		ins = append(ins, in)
	}
	tabled := func(in *Inbound) bool {
		e.cons.mu.Lock()
		defer e.cons.mu.Unlock()
		return e.cons.streams[in.key] == in
	}
	if !tabled(ins[0]) || !tabled(ins[1]) {
		t.Fatal("a stream with elements buffered left the stream table")
	}
	drain := func(in *Inbound) {
		t.Helper()
		for j := 0; j < n; j++ {
			if _, err := in.Recv(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain(ins[0])
	waitFor(t, func() bool { return !tabled(ins[0]) }, "first stream never left the table")
	if !tabled(ins[1]) {
		t.Fatal("draining one stream took the other out of the table")
	}
	if st := ins[0].Stats(); st.Received != n || st.Consumed != n || st.Queued != 0 || st.Batches == 0 {
		t.Fatalf("drained stream: %+v", st)
	}
	if st := ins[1].Stats(); st.Received != n || st.Consumed != 0 || st.Queued != n || st.Batches == 0 {
		t.Fatalf("undrained stream: %+v", st)
	}
	drain(ins[1])
	waitFor(t, func() bool { return !tabled(ins[1]) }, "second stream never left the table")
	if st := ins[1].Stats(); st.Received != n || st.Consumed != n || st.Queued != 0 {
		t.Fatalf("both drained: %+v", st)
	}
}

// TestStreamBackpressure pins the heart of the design: a consumer that
// stops reading stalls its producer at the window edge instead of letting
// the backlog grow.
func TestStreamBackpressure(t *testing.T) {
	const window = 16
	e := newEnv(t, ConsumerConfig{Window: window})
	b := e.bind(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	p, err := Open(ctx, b, "ticks", ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	in, err := e.cons.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Nobody Recvs: sends must stop at the window edge.
	sent := make(chan int, 1)
	go func() {
		n := 0
		sctx, scancel := context.WithTimeout(ctx, 500*time.Millisecond)
		defer scancel()
		for {
			if err := p.Send(sctx, values.Int(int64(n))); err != nil {
				break
			}
			n++
		}
		sent <- n
	}()
	n := <-sent
	// Credit is debited before the hand-off to the pump, so the local buffer
	// (256) and the batch in flight (64) only ever hold credited elements:
	// a stalled consumer admits its window and nothing more.
	if n > window {
		t.Fatalf("producer pushed %d elements into a stalled stream (window %d)", n, window)
	}
	if n < window {
		t.Fatalf("producer stalled after only %d elements (window %d)", n, window)
	}
	if st := in.Stats(); st.MaxQueued > window {
		t.Fatalf("consumer queued %d > window %d", st.MaxQueued, window)
	}
	if ps := p.Stats(); ps.Stalls == 0 {
		t.Fatal("no stalls recorded for a stalled stream")
	}
	// Draining revives the stream: credit flows back and Send works again.
	for i := 0; i < n; i++ {
		if _, err := in.Recv(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if err := p.Send(ctx, values.Int(999)); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
}

// A Send with no credit left waits for a grant or for its own context,
// nothing else: an expired or cancelled Send returns the context's error,
// debits no credit and delivers nothing, so after a drain the stream goes
// on with the next element the producer sends.
func TestStalledSendEndsWithItsContext(t *testing.T) {
	const window = 8
	e := newEnv(t, ConsumerConfig{Window: window})
	b := e.bind(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	p, err := Open(ctx, b, "ticks", ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	in, err := e.cons.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window; i++ {
		if err := p.Send(ctx, values.Int(int64(i))); err != nil {
			t.Fatalf("send %d inside the window: %v", i, err)
		}
	}

	expiring, done := context.WithTimeout(ctx, 20*time.Millisecond)
	defer done()
	if err := p.Send(expiring, values.Int(-1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("send past the window = %v, want DeadlineExceeded", err)
	}
	cancelled, cancelSend := context.WithCancel(ctx)
	stalled := make(chan error, 1)
	go func() { stalled <- p.Send(cancelled, values.Int(-2)) }()
	time.Sleep(10 * time.Millisecond) // let it wait on the gate
	cancelSend()
	select {
	case err := <-stalled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled send = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled send still waiting for credit")
	}
	if st := p.Stats(); st.Stalls < 2 {
		t.Errorf("stalls = %d, want one per stalled send", st.Stalls)
	}

	for i := 0; i < window; i++ {
		v, err := in.Recv(ctx)
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		if got, _ := v.AsInt(); got != int64(i) {
			t.Fatalf("element %d = %d", i, got)
		}
	}
	// The refused sends took no credit: the drained window admits a whole
	// window again, and only those elements arrive.
	refill, stop := context.WithTimeout(ctx, time.Second)
	defer stop()
	for i := 0; i < window; i++ {
		if err := p.Send(refill, values.Int(int64(100+i))); err != nil {
			t.Fatalf("send %d of the refilled window: %v", i, err)
		}
	}
	for i := 0; i < window; i++ {
		v, err := in.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.AsInt(); got != int64(100+i) {
			t.Fatalf("element %d after drain = %d, want %d: a refused send was delivered", i, got, 100+i)
		}
	}
}

// TestStreamMistypedElements covers the satellite fix end to end: mistyped
// elements are dropped server-side but counted, surfaced in ServerStats,
// and their credit still returns to the producer.
func TestStreamMistypedElements(t *testing.T) {
	e := newEnv(t, ConsumerConfig{Window: 8})
	// An untyped client binding (no Type) lets mistyped elements reach the
	// typed server stub.
	b, err := channel.Bind(e.ref, channel.BindConfig{Transport: e.net})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	p, err := Open(ctx, b, "ticks", ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	in, err := e.cons.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave good ints with mistyped strings: 8 good + 8 bad is double
	// the window, so the producer only survives if dropped elements are
	// credited back. Consumption runs concurrently to keep grants flowing.
	go func() {
		for i := 0; i < 8; i++ {
			if err := p.Send(ctx, values.Int(int64(i))); err != nil {
				t.Errorf("send int %d: %v", i, err)
				return
			}
			if err := p.Send(ctx, values.Str(fmt.Sprintf("bogus-%d", i))); err != nil {
				t.Errorf("send str %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		v, err := in.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got, _ := v.AsInt(); got != int64(i) {
			t.Fatalf("recv %d: got %v", i, v)
		}
	}
	waitFor(t, func() bool { return in.Stats().Dropped == 8 }, "dropped != 8: %+v", in.Stats())
	if got := e.srv.Stats().FlowTypeErrors; got != 8 {
		t.Fatalf("server FlowTypeErrors = %d, want 8", got)
	}
	if st := in.Stats(); st.SeqGaps != 0 {
		t.Fatalf("seq gaps %d: dropped elements broke FIFO accounting", st.SeqGaps)
	}
}

// TestStreamSessionDeath pins teardown: killing the transport wakes a
// credit-blocked producer with the ErrStreamClosed/ErrDisconnected chain
// and finishes the consumer's stream with an abnormal close.
func TestStreamSessionDeath(t *testing.T) {
	const window = 4
	e := newEnv(t, ConsumerConfig{Window: window})
	b := e.bind(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	p, err := Open(ctx, b, "ticks", ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.cons.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the window so the next Send blocks on credit.
	for i := 0; i < window; i++ {
		if err := p.Send(ctx, values.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() {
		// Two more: the first may slip into the local buffer, the second
		// must block at zero credit.
		for i := 0; i < 2; i++ {
			if err := p.Send(ctx, values.Int(100)); err != nil {
				blocked <- err
				return
			}
		}
		blocked <- p.Send(ctx, values.Int(101))
	}()
	time.Sleep(50 * time.Millisecond) // let the sender reach the gate
	e.net.CrashHost("server")

	err = <-blocked
	if !errors.Is(err, channel.ErrStreamClosed) {
		t.Fatalf("blocked send got %v, want ErrStreamClosed", err)
	}
	if !errors.Is(err, channel.ErrDisconnected) {
		t.Fatalf("ErrStreamClosed chain lost ErrDisconnected: %v", err)
	}
	// The consumer's end observes the abnormal close once the buffered
	// elements drain.
	for {
		_, err := in.Recv(ctx)
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("conn death surfaced as orderly EOF")
		}
		if !errors.Is(err, channel.ErrDisconnected) {
			t.Fatalf("consumer close err = %v, want ErrDisconnected", err)
		}
		break
	}
}

// TestStream64ProducersOneSession is the pipelining satellite: 64
// producers, each on its own binding, all multiplexed over one shared
// session to one consumer. Every stream must keep per-flow FIFO order and
// no element may leak across bindings, under -race.
func TestStream64ProducersOneSession(t *testing.T) {
	const (
		producers   = 64
		perProducer = 400     // past the producer's whole local bound (256 + 64)
		stride      = 1 << 20 // element = idx*stride + seq
	)
	e := newEnv(t, ConsumerConfig{Window: 16})
	mgr := channel.NewSessionManager(e.net)
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var pwg sync.WaitGroup
	for i := 0; i < producers; i++ {
		b, err := channel.Bind(e.ref, channel.BindConfig{
			Transport: e.net, Type: feedType(), Sessions: mgr,
		})
		if err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
		p, err := Open(ctx, b, "ticks", ProducerConfig{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		pwg.Add(1)
		go func(idx int, p *Producer, b *channel.Binding) {
			defer pwg.Done()
			defer b.Close()
			for seq := 0; seq < perProducer; seq++ {
				if err := p.Send(ctx, values.Int(int64(idx*stride+seq))); err != nil {
					t.Errorf("producer %d send %d: %v", idx, seq, err)
					return
				}
			}
			if err := p.Close(); err != nil {
				t.Errorf("producer %d close: %v", idx, err)
			}
		}(i, p, b)
	}

	var (
		mu     sync.Mutex
		owners = make(map[int]int) // producer idx -> streams that carried it
	)
	var cwg sync.WaitGroup
	for k := 0; k < producers; k++ {
		in, err := e.cons.Accept(ctx)
		if err != nil {
			t.Fatalf("accept %d: %v", k, err)
		}
		cwg.Add(1)
		go func(in *Inbound) {
			defer cwg.Done()
			owner, next := -1, 0
			for {
				v, err := in.Recv(ctx)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Errorf("stream recv: %v", err)
					return
				}
				n, _ := v.AsInt()
				idx, seq := int(n)/stride, int(n)%stride
				if owner == -1 {
					owner = idx
				}
				if idx != owner {
					t.Errorf("cross-binding delivery: stream of producer %d got element of producer %d", owner, idx)
					return
				}
				if seq != next {
					t.Errorf("producer %d: FIFO violated, got seq %d want %d", owner, seq, next)
					return
				}
				next++
			}
			if next != perProducer {
				t.Errorf("producer %d: stream delivered %d of %d elements", owner, next, perProducer)
			}
			if st := in.Stats(); st.SeqGaps != 0 {
				t.Errorf("producer %d: %d seq gaps", owner, st.SeqGaps)
			}
			mu.Lock()
			owners[owner]++
			mu.Unlock()
		}(in)
	}
	cwg.Wait()
	pwg.Wait()

	if len(owners) != producers {
		t.Fatalf("%d distinct producers observed, want %d", len(owners), producers)
	}
	for idx, n := range owners {
		if n != 1 {
			t.Errorf("producer %d delivered on %d streams", idx, n)
		}
	}
	// All 64 bindings really multiplexed over one transport session.
	if st := mgr.Stats(); st.Dials != 1 {
		t.Errorf("dials = %d, want 1 shared session", st.Dials)
	}
	if got := e.srv.Stats().FlowTypeErrors; got != 0 {
		t.Errorf("flow type errors: %d", got)
	}
}

// gatedTransport is a netsim transport whose dialled connections stop
// sending while the gate is held: the wire a producer's pump blocks behind.
type gatedTransport struct {
	netsim.Transport
	mu   sync.Mutex
	held chan struct{} // nil when open; closed by release
}

func (g *gatedTransport) hold() {
	g.mu.Lock()
	g.held = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedTransport) release() {
	g.mu.Lock()
	if g.held != nil {
		close(g.held)
		g.held = nil
	}
	g.mu.Unlock()
}

func (g *gatedTransport) Dial(ctx context.Context, ep naming.Endpoint) (netsim.Conn, error) {
	c, err := g.Transport.Dial(ctx, ep)
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: g}, nil
}

type gatedConn struct {
	netsim.Conn
	g *gatedTransport
}

func (c *gatedConn) Send(frame []byte) error {
	c.g.mu.Lock()
	held := c.g.held
	c.g.mu.Unlock()
	if held != nil {
		<-held
	}
	return c.Conn.Send(frame)
}

// TestProducerMemoryCeiling pins the producer's local bounds behind a
// stalled wire with credit to spare: one batch in the pump's hands plus a
// 256-element hand-off buffer is all it holds before Send blocks, and the
// buffered elements leave in frames of 64.
func TestProducerMemoryCeiling(t *testing.T) {
	e := newEnv(t, ConsumerConfig{Window: 1024})
	wire := &gatedTransport{Transport: e.net}
	defer wire.release()
	b, err := channel.Bind(e.ref, channel.BindConfig{Transport: wire, Type: feedType()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p, err := Open(ctx, b, "ticks", ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	waitFor(t, func() bool { return p.Stats().CreditElems == 1024 }, "initial grant never arrived: %+v", p.Stats())

	// The wire stalls. The first element reaches the pump, which blocks
	// writing it; the next 256 fill the hand-off buffer.
	wire.hold()
	if err := p.Send(ctx, values.Int(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.Stats().MaxBuffered == 1 }, "pump never took the first element: %+v", p.Stats())
	for i := 1; i <= 256; i++ {
		if err := p.Send(ctx, values.Int(int64(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Buffer full, 767 elements of credit left: Send blocks on the hand-off.
	sctx, scancel := context.WithTimeout(ctx, 100*time.Millisecond)
	err = p.Send(sctx, values.Int(257))
	scancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("send past a full buffer = %v, want it to block", err)
	}
	if st := p.Stats(); st.Sent != 0 || st.CreditElems == 0 {
		t.Fatalf("stalled wire: %+v, want nothing sent and credit to spare", st)
	}

	// The wire recovers: the 256 buffered elements go out 64 to a frame.
	wire.release()
	waitFor(t, func() bool { return p.Stats().Sent == 257 }, "buffer never drained: %+v", p.Stats())
	if st := p.Stats(); st.Batches != 1+256/64 || st.MaxBuffered > 256+64 {
		t.Fatalf("after drain: %+v, want 5 batches (1 + 4×64) and at most 320 buffered", st)
	}
}

func TestOpenRejectsWrongFlow(t *testing.T) {
	e := newEnv(t, ConsumerConfig{})
	b := e.bind(t)
	ctx := context.Background()
	if _, err := Open(ctx, b, "nope", ProducerConfig{}); !errors.Is(err, channel.ErrTypeCheck) {
		t.Fatalf("unknown flow: %v, want ErrTypeCheck", err)
	}
	// A Consumer-direction flow in this binding's view cannot be produced.
	mirror := types.Complement(feedType())
	b2, err := channel.Bind(e.ref, channel.BindConfig{Transport: e.net, Type: mirror})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if _, err := Open(ctx, b2, "ticks", ProducerConfig{}); !errors.Is(err, channel.ErrTypeCheck) {
		t.Fatalf("consumer-direction flow: %v, want ErrTypeCheck", err)
	}
}

func waitFor(t *testing.T, cond func() bool, format string, args ...any) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf(format, args...)
}

// TestConsumerRefusesOperations: a stream interface declares no
// operations, so the consumer end answers any call as a stage rejection
// the server turns into a no-such-operation reply.
func TestConsumerRefusesOperations(t *testing.T) {
	cons := NewConsumer(ConsumerConfig{})
	defer cons.Close()
	term, res, err := cons.Invoke(context.Background(), "Get", nil)
	var se *channel.StageError
	if term != "" || res != nil || !errors.As(err, &se) || se.Code != channel.CodeNoSuchOperation {
		t.Fatalf("Invoke = %q, %v, %v; want a %s stage error", term, res, err, channel.CodeNoSuchOperation)
	}
}
