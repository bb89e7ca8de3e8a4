package odp

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/types"
	"repro/internal/values"
)

func telemetryType() *types.Interface {
	return types.StreamInterface("Telemetry",
		types.FlowOf("readings", types.Producer,
			values.TRecord("Reading", values.FT("sensor", values.TInt()), values.FT("value", values.TInt()))))
}

// reading is the i-th Telemetry element.
func reading(i int) values.Value {
	return values.Record(values.F("sensor", values.Int(1)), values.F("value", values.Int(int64(i))))
}

func TestSubscribeAndOpenStream(t *testing.T) {
	s, err := New(Config{Seed: 1, Management: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.CreateNode("hub"); err != nil {
		t.Fatal(err)
	}
	cons, ref, err := s.Subscribe("hub", telemetryType(), stream.ConsumerConfig{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	p, b, err := s.OpenStream(ctx, "sensor-1", ref, "readings", core.Contract{}, stream.ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const total = 200
	go func() {
		for i := 0; i < total; i++ {
			if err := p.Send(ctx, reading(i)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		if err := p.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	in, err := cons.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		v, err := in.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		f, _ := v.FieldByName("value")
		if got, _ := f.AsInt(); got != int64(i) {
			t.Fatalf("recv %d: got %d", i, got)
		}
	}
	if _, err := in.Recv(ctx); err != io.EOF {
		t.Fatalf("after close: %v", err)
	}
	if st := in.Stats(); st.SeqGaps != 0 || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The finished, drained stream still counts in its consumer's Stats.
	if st := cons.Stats(); st.Streams != 0 || st.Received != total || st.Consumed != total || st.Queued != 0 {
		t.Fatalf("consumer stats after EOF: %+v", st)
	}

	// Streaming a flow the type does not declare is caught before any
	// wire traffic, by the causality check.
	if _, _, err := s.OpenStream(ctx, "sensor-1", ref, "nope", core.Contract{}, stream.ProducerConfig{}); !errors.Is(err, types.ErrBadInterface) {
		t.Fatalf("bad flow: %v", err)
	}
}

func TestSubscribeRejectsNonStream(t *testing.T) {
	s := NewSystem(1)
	defer s.Close()
	if _, err := s.CreateNode("hub"); err != nil {
		t.Fatal(err)
	}
	op := types.OpInterface("Ops")
	if _, _, err := s.Subscribe("hub", op, stream.ConsumerConfig{}); !errors.Is(err, ErrNotStream) {
		t.Fatalf("non-stream: %v", err)
	}
	if _, _, err := s.Subscribe("nope", telemetryType(), stream.ConsumerConfig{}); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("missing node: %v", err)
	}
}

// TestStreamLevelsAreRead: Management shows a stream end's levels as its
// own Stats keeps them. Twenty elements sent under a window of 64 and
// drained: the consumer holds nothing, the producer has 44 elements of
// credit left. (The pushed gauges these replaced read 20 and 64: the queue
// gauge was set on arrival only, the credit gauge on grant only.)
func TestStreamLevelsAreRead(t *testing.T) {
	s, err := New(Config{Seed: 1, Management: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.CreateNode("hub"); err != nil {
		t.Fatal(err)
	}
	cons, ref, err := s.Subscribe("hub", telemetryType(), stream.ConsumerConfig{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var closers []func() error // producer, then binding, newest first
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	open := func() *stream.Producer {
		t.Helper()
		p, b, err := s.OpenStream(ctx, "sensor-1", ref, "readings", core.Contract{}, stream.ProducerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		closers = append(closers, b.Close, p.Close)
		return p
	}
	send := func(p *stream.Producer, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := p.Send(ctx, reading(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	shown := func(name string) string {
		return dumpValues(s.Mgmt().Registry.Dump(), nil)[name]
	}

	p := open()
	send(p, 20)
	in, err := cons.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := in.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := shown("stream.hub.Telemetry.consumer.queued"), cons.Stats().Queued; got != "0" || want != 0 {
		t.Errorf("consumer queued: Management %s, Stats %d, want 0", got, want)
	}
	if got, want := shown("stream.sensor-1.readings.producer.credit_elems"), p.Stats().CreditElems; got != "44" || want != 44 {
		t.Errorf("producer credit: Management %s, Stats %d, want 44", got, want)
	}

	// A second producer on the same host and flow takes the names over:
	// Management shows the newer producer's own counts, not the two summed.
	p2 := open()
	send(p2, 5)
	if got := shown("stream.sensor-1.readings.producer.credit_elems"); got != "59" {
		t.Errorf("after a second producer, credit_elems = %s, want the newer producer's 59", got)
	}
	waitOdp(t, "the second producer's batch", func() bool { return p2.Stats().Sent == 5 })
	if got := shown("stream.sensor-1.readings.producer.sent"); got != "5" {
		t.Errorf("after a second producer, sent = %s, want the newer producer's 5", got)
	}
}
