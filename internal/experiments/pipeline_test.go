package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/values"
)

// writeCounts is what a countingTransport's connections have been asked to
// write, by method.
type writeCounts struct{ sends, batches atomic.Int64 }

// countingTransport dials connections that count their writes and pass
// them on, vectored writes included.
type countingTransport struct {
	netsim.Transport
	n *writeCounts
}

func (t countingTransport) Dial(ctx context.Context, ep naming.Endpoint) (netsim.Conn, error) {
	c, err := t.Transport.Dial(ctx, ep)
	if err != nil {
		return nil, err
	}
	return countingConn{c, t.n}, nil
}

type countingConn struct {
	netsim.Conn
	n *writeCounts
}

func (c countingConn) Send(frame []byte) error {
	c.n.sends.Add(1)
	return c.Conn.Send(frame)
}

func (c countingConn) SendBatch(frames [][]byte) error {
	c.n.batches.Add(1)
	return c.Conn.(netsim.BatchSender).SendBatch(frames)
}

// What makes E12's unbatched and serial arms a control: under
// frameByFrame neither end of a connection offers a vectored write, so the
// one send queue writes one Send per frame, while the same burst on the
// bare transport coalesces.
func TestE12ControlArmWritesFrameByFrame(t *testing.T) {
	f := newFleet(12)
	defer f.close()
	listener, tcp, err := f.endpoint("tcp")
	if err != nil {
		t.Fatal(err)
	}
	control := frameByFrameListener{listener}
	accepted := make(chan netsim.Conn, 1)
	go func() {
		if c, err := control.Accept(); err == nil {
			accepted <- c
		}
	}()
	dialled, err := frameByFrameTransport{tcp}.Dial(context.Background(), listener.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer dialled.Close()
	acc := <-accepted
	defer acc.Close()
	for end, c := range map[string]netsim.Conn{"dialled": dialled, "accepted": acc} {
		if _, ok := c.(netsim.BatchSender); ok {
			t.Errorf("the %s control conn still offers SendBatch", end)
		}
		if _, ok := c.(frameByFrame).Conn.(netsim.BatchSender); !ok {
			t.Errorf("the %s conn under the control has no SendBatch to hide", end)
		}
	}

	echo := channel.HandlerFunc(
		func(_ context.Context, _ string, args []values.Value) (string, []values.Value, error) {
			return "OK", args, nil
		})
	_, ref, err := f.start(control, channel.ServerConfig{}, naming.InterfaceID{Nonce: 12}, nil, echo)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 64
	// volley sends bursts of concurrent calls on one session over t until
	// one has been written vectored (or tries run out) and reports what the
	// client's connection was asked to write for the frames sent.
	volley := func(t *testing.T, tr netsim.Transport, n *writeCounts, tries int) (frames int64) {
		b, err := f.bind(ref, channel.BindConfig{Sessions: f.sessions(tr)})
		if err != nil {
			t.Fatal(err)
		}
		for try := 0; try < tries && n.batches.Load() == 0; try++ {
			var wg sync.WaitGroup
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := b.Invoke(context.Background(), "Echo", []values.Value{values.Int(1)}); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			frames += burst
		}
		return frames
	}

	var under writeCounts
	frames := volley(t, frameByFrameTransport{countingTransport{tcp, &under}}, &under, 1)
	if s, b := under.sends.Load(), under.batches.Load(); s != frames || b != 0 {
		t.Errorf("control arm: %d Send and %d SendBatch for %d frames, want one Send per frame and no SendBatch", s, b, frames)
	}
	var bare writeCounts
	frames = volley(t, countingTransport{tcp, &bare}, &bare, 50)
	if bare.batches.Load() == 0 {
		t.Errorf("bare transport: no SendBatch in %d frames sent %d at a time; the control would measure nothing", frames, burst)
	}
}

// The three arms of one E12 cell still run and report under their names.
func TestE12PipelineArms(t *testing.T) {
	rows, err := E12Pipeline("tcp", []int{2}, []int{2}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		if r.Calls == 0 || r.Throughput <= 0 {
			t.Errorf("%s/%s: empty measurement %+v", r.Transport, r.Mode, r)
		}
		got = append(got, r.Records()[0].Scenario)
	}
	want := []string{"tcp/serial", "tcp/unbatched", "tcp/batched"}
	if len(got) != len(want) {
		t.Fatalf("scenarios = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scenarios = %v, want %v", got, want)
		}
	}
}

// The serial arm is a control only if each binding really has one call in
// flight: a servant that counts the calls of each binding it is running
// must never see two at once, while on the batched arm of the same cell it
// must.
func TestE12SerialArmHasOneCallPerBinding(t *testing.T) {
	const n, k = 4, 8
	// peak runs one cell and returns the most calls of one binding the
	// servant ran at once.
	peak := func(mode string) int64 {
		running := make([]atomic.Int64, n)
		var most atomic.Int64
		recorder := channel.HandlerFunc(
			func(_ context.Context, _ string, args []values.Value) (string, []values.Value, error) {
				i, _ := args[0].AsInt()
				now := running[i].Add(1)
				for m := most.Load(); now > m && !most.CompareAndSwap(m, now); m = most.Load() {
				}
				time.Sleep(200 * time.Microsecond) // long enough for a sibling to arrive
				running[i].Add(-1)
				return "OK", args, nil
			})
		if _, err := e12Cell("sim", mode, n, k, 640, recorder); err != nil {
			t.Fatal(err)
		}
		return most.Load()
	}
	if p := peak("serial"); p != 1 {
		t.Errorf("serial: %d calls of one binding ran at once, want 1", p)
	}
	if p := peak("batched"); p < 2 {
		t.Errorf("batched: at most %d call of one binding ran at once; the servant cannot see overlap", p)
	}
}
