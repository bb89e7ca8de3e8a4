// E14: the streaming data plane — credit-window isolation of one slow
// consumer. The claim under test is the heart of PR 8: every flow stream
// multiplexed over a shared session has its own credit window, so a
// consumer that stops draining stalls exactly its own producer at the
// window edge while the sibling streams on the same connection keep their
// throughput; and memory stays bounded at both ends (the consumer queues
// at most its window, the producer buffers at most its local batch) no
// matter how long the stall lasts. The experiment runs N producers — each
// on its own binding, all multiplexed over one session to one consumer
// endpoint — in two scenarios, all-fast and one-slow (the consumer drains
// one designated stream with a fixed per-element delay), on the simulated
// network and on real loopback TCP. Head-of-line isolation is the ratio
// of fast-stream throughput between the two scenarios; the memory ceiling
// is the slow stream's high-water queue depth against its window.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/stream"
	"repro/internal/types"
	"repro/internal/values"
)

// E14Config is one streaming cell.
type E14Config struct {
	Transport string        // "sim" or "tcp"
	Streams   int           // producers, one binding each, one shared session
	Elems     int           // elements each fast producer sends
	Window    int           // consumer element window per stream
	SlowOne   bool          // one-slow scenario: stream 0 drains slowly
	SlowDelay time.Duration // per-element drain delay of the slow stream
}

// E14Row is one cell's measurement. Fast* fields cover the sibling
// streams (all streams in the all-fast scenario, all but stream 0 in
// one-slow); Slow* fields always describe stream 0.
type E14Row struct {
	Transport string `json:"transport"`
	Scenario  string `json:"scenario"` // "all-fast" or "one-slow"
	Streams   int    `json:"streams"`
	Elems     int    `json:"elems"`
	Window    int    `json:"window"`
	// FastThroughput is elements delivered per second aggregated across
	// the fast streams — the head-of-line-isolation headline.
	FastThroughput float64       `json:"fast_throughput"`
	SendP50        time.Duration `json:"send_p50_ns"` // fast producers' Send latency
	SendP99        time.Duration `json:"send_p99_ns"`
	SlowDelivered  uint64        `json:"slow_delivered"`  // elements stream 0 got through
	SlowMaxQueued  uint64        `json:"slow_max_queued"` // stream 0 consumer high-water (<= window)
	SlowStalls     uint64        `json:"slow_stalls"`     // credit stalls of producer 0
	MaxBuffered    uint64        `json:"max_buffered"`    // producer-side high-water, max over fleet
	SeqGaps        uint64        `json:"seq_gaps"`
	FlowTypeErrors uint64        `json:"flow_type_errors"`
	Elapsed        time.Duration `json:"elapsed_ns"`
}

const e14Stride = 1 << 32 // element = streamIdx*stride + seq

// e14Type is the stream service type, written — as everywhere in this
// repo — from the producing client's viewpoint.
func e14Type() *types.Interface {
	return types.StreamInterface("E14Feed",
		types.FlowOf("elems", types.Producer, values.TInt()))
}

// E14Cell runs one scenario cell: cfg.Streams producers over one shared
// session, each sending cfg.Elems elements (stream 0 sends until the fast
// fleet finishes when it is the slow one), one consumer endpoint draining
// them all concurrently.
func E14Cell(cfg E14Config) (E14Row, error) {
	f := newFleet(int64(14000 + cfg.Streams))
	defer f.close()
	f.net.SetAcceptBacklog(2 * cfg.Streams)
	listener, clientT, err := f.endpoint(cfg.Transport)
	if err != nil {
		return E14Row{}, err
	}
	cons := stream.NewConsumer(stream.ConsumerConfig{Window: cfg.Window})
	defer cons.Close()
	srv, ref, err := f.start(listener, channel.ServerConfig{}, naming.InterfaceID{Nonce: 14}, e14Type(), cons)
	if err != nil {
		return E14Row{}, err
	}
	mgr := f.sessions(clientT)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// The slow producer gets its own cancel: when it is the designated
	// victim it keeps sending until the fast fleet finishes, then is cut
	// off (a blocked Send wakes on context cancellation).
	slowCtx, slowCancel := context.WithCancel(ctx)
	defer slowCancel()

	producers := make([]*stream.Producer, cfg.Streams)
	for i := 0; i < cfg.Streams; i++ {
		b, err := f.bind(ref, channel.BindConfig{
			Sessions: mgr, Type: e14Type(), Transport: clientT,
		})
		if err != nil {
			return E14Row{}, err
		}
		p, err := stream.Open(ctx, b, "elems", stream.ProducerConfig{})
		if err != nil {
			return E14Row{}, err
		}
		producers[i] = p
	}

	// Consumer side: accept every stream; each drains in its own
	// goroutine. The slow stream identifies itself by its first element's
	// stream index — streams are symmetric until then, so no delay is lost.
	type inboundDone struct {
		owner     int
		delivered uint64
		maxQueued uint64
		seqGaps   uint64
		err       error
	}
	doneCh := make(chan inboundDone, cfg.Streams)
	var cwg sync.WaitGroup
	for k := 0; k < cfg.Streams; k++ {
		in, err := cons.Accept(ctx)
		if err != nil {
			return E14Row{}, err
		}
		cwg.Add(1)
		go func(in *stream.Inbound) {
			defer cwg.Done()
			d := inboundDone{owner: -1}
			for {
				v, err := in.Recv(ctx)
				if err != nil {
					if err != io.EOF {
						d.err = err
					}
					break
				}
				n, _ := v.AsInt()
				if d.owner == -1 {
					d.owner = int(n / e14Stride)
				}
				d.delivered++
				if cfg.SlowOne && d.owner == 0 {
					time.Sleep(cfg.SlowDelay)
				}
			}
			st := in.Stats()
			d.maxQueued, d.seqGaps = st.MaxQueued, st.SeqGaps
			doneCh <- d
		}(in)
	}

	// Producer side. Fast producers send cfg.Elems and record per-Send
	// latency; the slow producer (one-slow scenario) sends until cancelled.
	errs := make(chan error, cfg.Streams)
	durs := make([][]time.Duration, cfg.Streams)
	var pwg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Streams; i++ {
		pwg.Add(1)
		go func(idx int, p *stream.Producer) {
			defer pwg.Done()
			pctx := ctx
			elems := cfg.Elems
			if cfg.SlowOne && idx == 0 {
				pctx, elems = slowCtx, 1<<31
			}
			lat := make([]time.Duration, 0, cfg.Elems)
			for seq := 0; seq < elems; seq++ {
				t0 := time.Now()
				if err := p.Send(pctx, values.Int(int64(idx)*e14Stride+int64(seq))); err != nil {
					if pctx.Err() == nil {
						errs <- fmt.Errorf("producer %d send %d: %w", idx, seq, err)
					}
					break
				}
				lat = append(lat, time.Since(t0))
			}
			durs[idx] = lat
			if err := p.Close(); err != nil && pctx.Err() == nil {
				errs <- fmt.Errorf("producer %d close: %w", idx, err)
			}
		}(i, producers[i])
	}

	// Completion accounting: the clock stops when the last fast stream
	// finishes; in the one-slow scenario producer 0 is then cut off and
	// its stream drains out (at most a window of queued elements).
	var (
		fastDelivered uint64
		slow          inboundDone
		seqGaps       uint64
		fastElapsed   time.Duration
	)
	fastStreams := cfg.Streams
	if cfg.SlowOne {
		fastStreams--
	}
	finished := 0
	for received := 0; received < cfg.Streams; received++ {
		d := <-doneCh
		if d.err != nil {
			return E14Row{}, d.err
		}
		seqGaps += d.seqGaps
		if d.owner == 0 {
			slow = d // stream 0: the victim in one-slow, representative otherwise
		}
		if cfg.SlowOne && d.owner == 0 {
			continue
		}
		fastDelivered += d.delivered
		finished++
		if finished == fastStreams {
			fastElapsed = time.Since(start)
			slowCancel() // one-slow: cut the victim off; no-op otherwise
		}
	}

	pwg.Wait()
	cwg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return E14Row{}, err
	}

	row := E14Row{
		Transport: cfg.Transport,
		Scenario:  "all-fast",
		Streams:   cfg.Streams,
		Elems:     cfg.Elems,
		Window:    cfg.Window,
		Elapsed:   fastElapsed,
	}
	if cfg.SlowOne {
		row.Scenario = "one-slow"
	}
	row.FastThroughput = float64(fastDelivered) / fastElapsed.Seconds()

	var all []time.Duration
	for i, d := range durs {
		if cfg.SlowOne && i == 0 {
			continue
		}
		all = append(all, d...)
	}
	row.SendP50, row.SendP99 = quantiles(all)

	slowStats := producers[0].Stats()
	row.SlowDelivered = slow.delivered
	row.SlowMaxQueued = slow.maxQueued
	row.SlowStalls = slowStats.Stalls
	row.SeqGaps = seqGaps
	for _, p := range producers {
		if ps := p.Stats(); ps.MaxBuffered > row.MaxBuffered {
			row.MaxBuffered = ps.MaxBuffered
		}
	}
	row.FlowTypeErrors = srv.Stats().FlowTypeErrors
	return row, nil
}

// E14Report bundles the scenario × transport grid for odpbench.
type E14Report struct {
	Rows []E14Row
}

// E14 runs the full grid (or the CI smoke slice: fewer elements, sim plus
// one TCP cell pair).
func E14(smoke bool) (E14Report, error) {
	streams, elems, window := 64, 2000, 32
	delay := time.Millisecond
	if smoke {
		elems = 400
	}
	var rep E14Report
	for _, transport := range []string{"sim", "tcp"} {
		for _, slow := range []bool{false, true} {
			row, err := E14Cell(E14Config{
				Transport: transport,
				Streams:   streams,
				Elems:     elems,
				Window:    window,
				SlowOne:   slow,
				SlowDelay: delay,
			})
			if err != nil {
				return rep, fmt.Errorf("e14 %s slow=%v: %w", transport, slow, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// Records flattens the report into the unified benchmark-record shape.
func (r E14Report) Records() []Record {
	var out []Record
	for _, row := range r.Rows {
		out = append(out, Record{
			Experiment: "e14",
			Scenario:   row.Scenario + "/" + row.Transport,
			Params: map[string]float64{
				"streams": float64(row.Streams),
				"elems":   float64(row.Elems),
				"window":  float64(row.Window),
			},
			Metrics: map[string]float64{
				"fast_throughput":  row.FastThroughput,
				"send_p50_us":      float64(row.SendP50.Microseconds()),
				"send_p99_us":      float64(row.SendP99.Microseconds()),
				"slow_delivered":   float64(row.SlowDelivered),
				"slow_max_queued":  float64(row.SlowMaxQueued),
				"slow_stalls":      float64(row.SlowStalls),
				"max_buffered":     float64(row.MaxBuffered),
				"seq_gaps":         float64(row.SeqGaps),
				"flow_type_errors": float64(row.FlowTypeErrors),
			},
		})
	}
	return out
}
