package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/stream"
	"repro/internal/types"
	"repro/internal/values"
)

// stream_credit drives the streaming data plane: four producers on one
// session push 1 KiB elements at a consumer with a 32-element window as
// fast as credit admits them. An operation is one element received; its
// latency runs from the producer's Send call to the consumer's Recv
// return.

const (
	streamProducers = 4
	streamWindow    = 32
	elemSize        = 1024
	// Element layout: send time (ns since the phase began), producer,
	// sequence number, seeded filler, CRC-32 of everything before it.
	offStamp = 0
	offProd  = 8
	offSeq   = 12
	offCRC   = elemSize - 4
	// latEvery: one latency sample is stored per this many elements.
	latEvery = 8
	// spanEvery: one element in this many is recorded as spans on a
	// traced run; it must exceed what can be in flight (window + buffer).
	spanEvery = 1024
)

func feedType() *types.Interface {
	return types.StreamInterface("BenchFeed",
		types.FlowOf("elems", types.Producer, values.TBytes()))
}

type streamInstance struct {
	tr       *tracer
	server   *channel.Server
	consumer *stream.Consumer
	sessions *channel.SessionManager
	bindings []*channel.Binding
	filler   [streamProducers][]byte

	// what the last phase saw, for layers
	prod    []stream.ProducerStats
	grants0 uint64
	grants  uint64

	// over every phase, for verify
	sent, received atomic.Int64
	seqGaps        atomic.Int64

	// spans of the sampled element each producer has in flight
	inflight [streamProducers]atomic.Pointer[opTrace]
}

func (si *streamInstance) goroutines() int  { return streamProducers }
func (si *streamInstance) sampleEvery() int { return latEvery }
func (si *streamInstance) pids() []int      { return nil }

func (si *streamInstance) close() {
	for _, b := range si.bindings {
		b.Close()
	}
	if si.sessions != nil {
		si.sessions.Close()
	}
	if si.consumer != nil {
		si.consumer.Close()
	}
	if si.server != nil {
		si.server.Close()
	}
}

func setupStream(cfg runConfig) (inst instance, err error) {
	si := &streamInstance{tr: cfg.tr}
	defer func() {
		if err != nil {
			si.close()
		}
	}()
	var transport netsim.Transport = netsim.NewTCP()
	if cfg.tr != nil {
		transport = tracedTransport{transport, cfg.tr}
	}
	l, err := transport.Listen("tcp://127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	si.server = channel.NewServer(l, channel.ServerConfig{})
	si.consumer = stream.NewConsumer(stream.ConsumerConfig{Window: streamWindow})
	id := naming.InterfaceID{Nonce: 0x57ea}
	if err := si.server.Register(id, feedType(), si.consumer); err != nil {
		return nil, err
	}
	si.server.Start()
	ref := naming.InterfaceRef{ID: id, TypeName: "BenchFeed", Endpoint: l.Endpoint()}

	si.sessions = channel.NewSessionManager(transport)
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < streamProducers; i++ {
		b, err := channel.Bind(ref, channel.BindConfig{Sessions: si.sessions, Type: feedType()})
		if err != nil {
			return nil, err
		}
		si.bindings = append(si.bindings, b)
		si.filler[i] = make([]byte, elemSize)
		rng.Read(si.filler[i])
	}
	// The first successful operation: one element through a stream.
	if err := si.firstElement(); err != nil {
		return nil, err
	}
	return si, nil
}

func (si *streamInstance) firstElement() error {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	p, err := stream.Open(ctx, si.bindings[0], "elems", stream.ProducerConfig{})
	if err != nil {
		return err
	}
	in, err := si.consumer.Accept(ctx)
	if err != nil {
		return err
	}
	if err := p.Send(ctx, values.BytesVal(si.filler[0])); err != nil {
		return err
	}
	if _, err := in.Recv(ctx); err != nil {
		return err
	}
	if err := p.Close(); err != nil {
		return err
	}
	if _, err := in.Recv(ctx); !errors.Is(err, io.EOF) {
		return fmt.Errorf("stream did not end cleanly: %v", err)
	}
	return nil
}

func (si *streamInstance) run(p *phase) {
	traced := p.traced && si.tr != nil
	var off int64
	if traced {
		off = int64(p.start.Sub(si.tr.base))
	}
	si.grants0 = si.server.Stats().CreditGrants
	producers := make([]*stream.Producer, 0, streamProducers)
	inbounds := make([]*stream.Inbound, 0, streamProducers)
	for i := 0; i < streamProducers; i++ {
		pr, err := stream.Open(p.ctx, si.bindings[i], "elems", stream.ProducerConfig{})
		if err == nil {
			producers = append(producers, pr)
			var in *stream.Inbound
			if in, err = si.consumer.Accept(p.ctx); err == nil {
				inbounds = append(inbounds, in)
				continue
			}
		}
		// A stream that cannot open fails the phase.
		p.samplers[0].attempted++
		p.samplers[0].fail("open stream %d: %v", i, err)
		for _, pr := range producers {
			_ = pr.Close()
		}
		return
	}

	var sent [streamProducers]int64
	var pwg, cwg sync.WaitGroup
	for i := range producers {
		pwg.Add(1)
		go func(idx int, pr *stream.Producer) {
			defer pwg.Done()
			sent[idx] = si.produce(p, idx, pr, traced, off)
		}(i, producers[i])
	}
	for i := range inbounds {
		cwg.Add(1)
		go func(in *stream.Inbound, s *sampler) {
			defer cwg.Done()
			si.consume(p, in, s, traced, off)
		}(inbounds[i], p.samplers[i])
	}
	pwg.Wait()
	cwg.Wait()

	si.prod = si.prod[:0]
	for i := range producers {
		si.prod = append(si.prod, producers[i].Stats())
		si.seqGaps.Add(int64(inbounds[i].Stats().SeqGaps))
		p.samplers[i].attempted += sent[i]
		si.sent.Add(sent[i])
	}
	si.grants = si.server.Stats().CreditGrants - si.grants0
}

// produce sends elements until the phase's deadline, then closes the
// stream; it returns how many Sends were acknowledged.
func (si *streamInstance) produce(p *phase, idx int, pr *stream.Producer, traced bool, off int64) (sent int64) {
	buf := append([]byte(nil), si.filler[idx]...)
	binary.BigEndian.PutUint32(buf[offProd:], uint32(idx))
	for seq := uint64(0); ; seq++ {
		t0 := p.now()
		if p.over(t0) {
			break
		}
		binary.BigEndian.PutUint64(buf[offStamp:], uint64(t0))
		binary.BigEndian.PutUint64(buf[offSeq:], seq)
		binary.BigEndian.PutUint32(buf[offCRC:], crc32.ChecksumIEEE(buf[:offCRC]))
		// The element's spans are filed before it is sent: the consumer may
		// have it before Send returns.
		var o *opTrace
		if traced && seq%spanEvery == 0 {
			o = &opTrace{id: fmt.Sprintf("p%d#%d", idx, seq)}
			si.inflight[idx].Store(o)
		}
		err := pr.Send(p.ctx, values.BytesVal(buf))
		if traced {
			t1 := p.now()
			si.tr.dur[dStreamSend].add(t1 - t0)
			if o != nil {
				o.add("stream.send", t0+off, t1+off)
			}
		}
		if err != nil {
			break
		}
		sent++
	}
	_ = pr.Close()
	return sent
}

// consume drains one inbound stream to its end, checking every element.
func (si *streamInstance) consume(p *phase, in *stream.Inbound, s *sampler, traced bool, off int64) {
	next := uint64(0)
	defer func() { si.received.Add(int64(next)) }()
	for {
		var r0 int64
		if traced {
			r0 = p.now()
		}
		v, err := in.Recv(p.ctx)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.fail("Recv after %d elements: %v", next, err)
			}
			return
		}
		t1 := p.now()
		b, _ := v.BytesView()
		if len(b) != elemSize ||
			crc32.ChecksumIEEE(b[:offCRC]) != binary.BigEndian.Uint32(b[offCRC:]) ||
			binary.BigEndian.Uint64(b[offSeq:]) != next {
			s.fail("element %d: bad length, checksum or order", next)
			next++
			continue
		}
		stamp := int64(binary.BigEndian.Uint64(b[offStamp:]))
		if traced {
			si.tr.dur[dStreamRecv].add(t1 - r0)
			if next%spanEvery == 0 {
				idx := binary.BigEndian.Uint32(b[offProd:])
				if o := si.inflight[idx].Swap(nil); o != nil {
					o.add("stream.element", stamp+off, t1+off)
					o.add("stream.recv", r0+off, t1+off)
					si.tr.finish(o)
				}
			}
		}
		next++
		s.bytes += elemSize
		s.done(t1, t1-stamp)
	}
}

// verify: every acknowledged Send was received, in order and intact.
func (si *streamInstance) verify() (checked, failed int64) {
	checked = 3
	if si.sent.Load() != si.received.Load() {
		failed++
	}
	if si.seqGaps.Load() != 0 {
		failed++
	}
	if si.server.Stats().FlowTypeErrors != 0 {
		failed++
	}
	return
}

func (si *streamInstance) layers(p *phase, m metrics) {
	tr := si.tr
	_, _, bytes, completed := p.totals()
	elems := float64(completed)
	m["stream.send_us_per_elem"] = tr.dur[dStreamSend].meanUs()
	m["stream.recv_us_per_elem"] = tr.dur[dStreamRecv].meanUs()
	var sent, batches, stalls, stallNs, maxBuf uint64
	for _, st := range si.prod {
		sent += st.Sent
		batches += st.Batches
		stalls += st.Stalls
		stallNs += st.StallNs
		if st.MaxBuffered > maxBuf {
			maxBuf = st.MaxBuffered
		}
	}
	m["stream.stall_share"] = float64(stallNs) / (float64(p.elapsed.Nanoseconds()) * streamProducers)
	if sent > 0 {
		m["stream.stalls_per_kelem"] = float64(stalls) / float64(sent) * 1e3
		m["stream.grants_per_kelem"] = float64(si.grants) / float64(sent) * 1e3
	}
	if batches > 0 {
		m["stream.elems_per_frame"] = float64(sent) / float64(batches)
	}
	m["stream.max_buffered"] = float64(maxBuf)
	m["stream.seq_gaps"] = float64(si.seqGaps.Load())
	m["stream.flow_type_errors"] = float64(si.server.Stats().FlowTypeErrors)
	m["stream.bytes_per_s"] = float64(bytes) / p.dur.Seconds()

	tr.netsimCounters(elems, m)
	serverCounters(si.server, m)
	replayFrames(tr, m)
}
