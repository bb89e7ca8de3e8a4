// E12: invocation pipelining + adaptive frame batching. The session data
// plane claims that once many interrogations are in flight on one shared
// connection, the per-call cost should be dominated by the work, not the
// writes: the caller that finds a session's queue idle writes whatever
// it holds as one vectored write, so syscalls per invocation fall as load
// rises while an isolated call still departs immediately (no delay
// timer). This experiment measures invocation throughput and latency
// across a (bindings × in-flight-per-binding) grid, with the data plane as
// shipped against a control built here: the same pipeline over a
// connection without a vectored write (one Send per frame at both ends,
// the pre-batching shape), on both transports.
//
// The two transports answer different questions. Real loopback TCP is
// where batching pays: a vectored write replaces N length-prefix +
// payload write pairs with one writev, so the batched/unbatched ratio at
// high concurrency is the headline number (and the CI gate). The
// simulated transport has no vectored write either way, so on E12/sim the
// control and the batched arm are the same pipeline by construction and
// their ratio sits at 1× within noise.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/values"
)

// frameByFrame is E12's control: a connection that has lost its vectored
// write. Embedding the Conn interface hides the transport's SendBatch, so
// the channel's send queue — at whichever end holds the connection —
// falls back to one Send per frame.
type frameByFrame struct{ netsim.Conn }

// frameByFrameTransport dials control connections over the embedded
// transport, and frameByFrameListener accepts them: the control applies
// to both ends of a session.
type frameByFrameTransport struct{ netsim.Transport }

func (t frameByFrameTransport) Dial(ctx context.Context, ep naming.Endpoint) (netsim.Conn, error) {
	c, err := t.Transport.Dial(ctx, ep)
	if err != nil {
		return nil, err
	}
	return frameByFrame{c}, nil
}

type frameByFrameListener struct{ netsim.Listener }

func (l frameByFrameListener) Accept() (netsim.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return frameByFrame{c}, nil
}

// E12PipelineRow is one (transport, mode, bindings, in-flight) measurement.
// Modes:
//
//	batched    the data plane as shipped: k workers pipeline their calls
//	           on each binding over the session's combining send queue.
//	unbatched  the same pipelined bindings over frameByFrame connections,
//	           one write per frame — isolates the batching contribution.
//	serial     the unpipelined baseline: the same k workers per binding
//	           take turns on a lock of that binding's own, so it has one
//	           call in flight, over frameByFrame connections. This is the
//	           shape a caller that serialises its calls per binding sees;
//	           the CI gate compares batched against it.
type E12PipelineRow struct {
	Transport string // "sim" or "tcp"
	Mode      string // "batched", "unbatched" or "serial"
	Bindings  int
	InFlight  int // concurrent interrogations per binding
	Calls     int // total invocations measured
	// Throughput is invocations completed per second across the whole
	// fleet (the fleet shares one connection, so this is also the
	// per-connection rate).
	Throughput float64
	P50, P99   time.Duration
}

// Records flattens the row into the unified benchmark-record shape.
func (r E12PipelineRow) Records() []Record {
	return []Record{{
		Experiment: "e12",
		Scenario:   r.Transport + "/" + r.Mode,
		Params: map[string]float64{
			"bindings": float64(r.Bindings),
			"inflight": float64(r.InFlight),
		},
		Metrics: map[string]float64{
			"calls":      float64(r.Calls),
			"throughput": r.Throughput,
			"p50_us":     float64(r.P50.Microseconds()),
			"p99_us":     float64(r.P99.Microseconds()),
		},
	}}
}

// e12 is the E12 section: the full grid on both transports, 8,000 calls
// per cell. smoke restricts it to the CI cell (tcp, 64 bindings × 8
// in-flight) plus the single-call latency cell (tcp, 1×1) that guards
// against batching taxing the idle path.
func e12(smoke bool) ([]Record, string, error) {
	const callsPerCell = 8000
	transports, bindings, inflight := []string{"sim", "tcp"}, []int{1, 64, 256}, []int{1, 8, 64}
	if smoke {
		transports, bindings, inflight = []string{"tcp"}, []int{1, 64}, []int{1, 8}
	}
	var recs []Record
	for _, transport := range transports {
		rows, err := E12Pipeline(transport, bindings, inflight, callsPerCell)
		if err != nil {
			return nil, "", err
		}
		for _, r := range rows {
			recs = append(recs, r.Records()...)
		}
	}
	return recs, "", nil
}

// E12Pipeline measures the grid bindings × inflight in both data-plane
// modes on one transport. totalCalls is the per-cell invocation budget:
// each cell runs ~totalCalls invocations however many workers it has, so
// big cells do not take quadratically longer than small ones.
func E12Pipeline(transport string, bindings, inflight []int, totalCalls int) ([]E12PipelineRow, error) {
	var rows []E12PipelineRow
	for _, n := range bindings {
		for _, k := range inflight {
			modes := []string{"unbatched", "batched"}
			if k > 1 {
				// With one worker per binding "serial" measures the same
				// thing as "unbatched"; only a multi-worker cell has a
				// serialisation to remove.
				modes = []string{"serial", "unbatched", "batched"}
			}
			for _, mode := range modes {
				row, err := e12Cell(transport, mode, n, k, totalCalls, echo)
				if err != nil {
					return rows, fmt.Errorf("e12 %s/%s n=%d k=%d: %w", transport, mode, n, k, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// echo is E12's servant: it answers every call with its arguments.
var echo = channel.HandlerFunc(
	func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
		return "OK", args, nil
	})

// e12Cell measures one cell against servant. Binding i's calls carry the
// argument Int(i), so a servant can tell the bindings apart.
func e12Cell(transport, mode string, n, k, totalCalls int, servant channel.Handler) (E12PipelineRow, error) {
	f := newFleet(int64(12000 + n*100 + k))
	defer f.close()
	f.net.SetAcceptBacklog(2 * n)
	listener, clientT, err := f.endpoint(transport)
	if err != nil {
		return E12PipelineRow{}, err
	}
	if mode != "batched" {
		listener, clientT = frameByFrameListener{listener}, frameByFrameTransport{clientT}
	}
	_, ref, err := f.start(listener, channel.ServerConfig{}, naming.InterfaceID{Nonce: 12}, nil, servant)
	if err != nil {
		return E12PipelineRow{}, err
	}

	mgr := f.sessions(clientT)
	bindings := make([]*channel.Binding, n)
	args := make([][]values.Value, n)
	for i := range bindings {
		b, err := f.bind(ref, channel.BindConfig{Sessions: mgr})
		if err != nil {
			return E12PipelineRow{}, err
		}
		bindings[i], args[i] = b, []values.Value{values.Int(int64(i))}
	}

	ctx := context.Background()
	// Attach every binding to the shared session before the clock starts.
	for i, b := range bindings {
		if _, _, err := b.Invoke(ctx, "Echo", args[i]); err != nil {
			return E12PipelineRow{}, err
		}
	}

	// k workers per binding, so each binding has at most k calls in flight
	// — one in serial mode, where its workers queue on its lock, and the
	// wait counts in their latency.
	var turns []sync.Mutex
	if mode == "serial" {
		turns = make([]sync.Mutex, n)
	}
	workers := n * k
	calls := max(totalCalls/workers, 1) * workers
	elapsed, lats, err := closedLoop(workers, calls, func(w, _ int) error {
		i := w % n
		if turns != nil {
			turns[i].Lock()
			defer turns[i].Unlock()
		}
		_, _, err := bindings[i].Invoke(ctx, "Echo", args[i])
		return err
	})
	if err != nil {
		return E12PipelineRow{}, err
	}
	row := E12PipelineRow{
		Transport:  transport,
		Mode:       mode,
		Bindings:   n,
		InFlight:   k,
		Calls:      calls,
		Throughput: float64(calls) / elapsed.Seconds(),
	}
	row.P50, row.P99 = quantiles(lats)
	return row, nil
}
