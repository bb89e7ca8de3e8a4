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
			v := values.Record(
				values.F("sensor", values.Int(1)),
				values.F("value", values.Int(int64(i))))
			if err := p.Send(ctx, v); err != nil {
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
	// The management domain saw the stream: producer credit gauge exists.
	if s.Mgmt() == nil {
		t.Fatal("management disabled")
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
