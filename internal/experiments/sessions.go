// E10: session multiplexing. The session layer claims that bindings are
// cheap and connections are the scarce resource — N bindings from one
// client to one node should cost one transport session (one connection,
// one dial, one read loop) in shared mode, against N of each when every
// binding owns a private session manager (the pre-session-layer shape).
// This experiment measures both modes as N grows: connections accepted by
// the server, dials performed by the client, heap per binding, and the
// p50/p99 invocation latency under concurrent load across all bindings.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/values"
)

// E10SessionRow is one (mode, binding count) measurement.
type E10SessionRow struct {
	Mode     string // "shared" (one manager) or "per-binding" (one manager each)
	Bindings int
	Conns    uint64 // connections the server accepted
	Dials    uint64 // dials the client side performed
	HeapPerB uint64 // process heap growth per binding, bytes (rough: includes both ends)
	P50, P99 time.Duration
}

// E10SessionScaling measures session multiplexing for each binding count
// in ns, in both modes, with callsPerBinding sequential invocations per
// binding running concurrently across bindings.
func E10SessionScaling(ns []int, callsPerBinding int) ([]E10SessionRow, error) {
	var rows []E10SessionRow
	for _, n := range ns {
		for _, mode := range []string{"per-binding", "shared"} {
			row, err := e10Row(mode, n, callsPerBinding)
			if err != nil {
				return rows, fmt.Errorf("e10 %s n=%d: %w", mode, n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// e10 is the E10 section: both modes at 1, 16, 64 and 256 bindings, 20
// calls per binding.
func e10(bool) ([]Record, string, error) {
	rows, err := E10SessionScaling([]int{1, 16, 64, 256}, 20)
	if err != nil {
		return nil, "", err
	}
	var recs []Record
	for _, r := range rows {
		recs = append(recs, Record{
			Experiment: "e10",
			Scenario:   r.Mode,
			Params:     map[string]float64{"bindings": float64(r.Bindings)},
			Metrics: map[string]float64{
				"conns":            float64(r.Conns),
				"dials":            float64(r.Dials),
				"heap_per_binding": float64(r.HeapPerB),
				"p50_us":           float64(r.P50.Microseconds()),
				"p99_us":           float64(r.P99.Microseconds()),
			},
		})
	}
	return recs, "", nil
}

func e10Row(mode string, n, calls int) (E10SessionRow, error) {
	// Per-binding mode dials n connections in a burst; the backlog keeps
	// that out of the measurement.
	f := newFleet(int64(9000 + n))
	defer f.close()
	f.net.SetAcceptBacklog(2 * n)
	l, _, err := f.endpoint("sim")
	if err != nil {
		return E10SessionRow{}, err
	}
	srv, ref, err := f.start(l, channel.ServerConfig{}, naming.InterfaceID{Nonce: 10}, nil, channel.HandlerFunc(
		func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
			return "OK", args, nil
		}))
	if err != nil {
		return E10SessionRow{}, err
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var managers []*channel.SessionManager
	bindings := make([]*channel.Binding, n)
	for i := range bindings {
		if mode != "shared" || i == 0 {
			managers = append(managers, f.sessions(f.net.From("client")))
		}
		b, err := f.bind(ref, channel.BindConfig{Sessions: managers[len(managers)-1]})
		if err != nil {
			return E10SessionRow{}, err
		}
		bindings[i] = b
	}
	// Establish every binding's session before measuring, concurrently (in
	// per-binding mode this is the n-dial burst itself).
	if _, err := e10Fanout(bindings, 1); err != nil {
		return E10SessionRow{}, err
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	var heapPerB uint64
	if after.HeapAlloc > before.HeapAlloc {
		heapPerB = (after.HeapAlloc - before.HeapAlloc) / uint64(n)
	}

	// Latency under concurrent load across all bindings.
	lats, err := e10Fanout(bindings, calls)
	if err != nil {
		return E10SessionRow{}, err
	}
	row := E10SessionRow{
		Mode:     mode,
		Bindings: n,
		Conns:    srv.Stats().Sessions,
		HeapPerB: heapPerB,
	}
	row.P50, row.P99 = quantiles(lats)
	for _, m := range managers {
		row.Dials += m.Stats().Dials
	}
	return row, nil
}

// e10Fanout invokes every binding calls times — one worker per binding,
// call n going to binding n mod len(bindings), so each binding is hit
// exactly calls times — and returns the per-call latencies.
func e10Fanout(bindings []*channel.Binding, calls int) ([]time.Duration, error) {
	ctx := context.Background()
	arg := []values.Value{values.Int(1)}
	_, lats, err := closedLoop(len(bindings), len(bindings)*calls, func(_, n int) error {
		_, _, err := bindings[n%len(bindings)].Invoke(ctx, "Echo", arg)
		return err
	})
	return lats, err
}
