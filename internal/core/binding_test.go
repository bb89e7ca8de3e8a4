package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/relocator"
	"repro/internal/types"
	"repro/internal/values"
)

func frameStream() *types.Interface {
	return types.StreamInterface("Frames",
		types.FlowOf("video", types.Consumer, values.TBytes()),
	)
}

// collector is a consumer behaviour that records received flow elements.
type collector struct {
	mu    sync.Mutex
	elems []values.Value
}

func (c *collector) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	return "", nil, nil
}

func (c *collector) Flow(_ string, elem values.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.elems = append(c.elems, elem)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.elems)
}

func TestStreamBindingObjectFansOut(t *testing.T) {
	net := netsim.New(1)
	reloc := relocator.New()
	node, err := engineering.NewNode(engineering.NodeConfig{
		ID: "alpha", Endpoint: "sim://alpha", Transport: net.From("alpha"), Locations: reloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Behaviours: consumers plus the binding object itself.
	node.Behaviors().Register("collector", func(values.Value) (engineering.Behavior, error) {
		return &collector{}, nil
	})
	RegisterStreamBinding(node.Behaviors(), "core.stream-binding", func(ref naming.InterfaceRef) (FlowSender, error) {
		return node.Bind(ref, channel.BindConfig{Locator: reloc})
	})

	capsule, err := node.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Two consumers, each offering the stream interface.
	consumers := make([]*collector, 2)
	sinkRefs := make([]naming.InterfaceRef, 2)
	for i := range consumers {
		obj, err := cluster.CreateObject("collector", values.Null())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := obj.AddInterface(frameStream())
		if err != nil {
			t.Fatal(err)
		}
		sinkRefs[i] = ref
		consumers[i] = obj.Behavior().(*collector)
	}

	// The binding object offers control + stream interfaces.
	bindObj, err := cluster.CreateObject("core.stream-binding", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	ctrlRef, err := bindObj.AddInterface(StreamBindingControlType())
	if err != nil {
		t.Fatal(err)
	}
	streamRef, err := bindObj.AddInterface(frameStream())
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ctrl, err := node.Bind(ctrlRef, channel.BindConfig{Type: StreamBindingControlType()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// Attach both sinks through the control interface.
	for i, ref := range sinkRefs {
		term, res, err := ctrl.Invoke(ctx, "AddSink", []values.Value{ref.ToValue()})
		if err != nil || term != "OK" {
			t.Fatalf("AddSink %d = %q, %v, %v", i, term, res, err)
		}
	}
	// Duplicate attachment is rejected.
	if term, _, err := ctrl.Invoke(ctx, "AddSink", []values.Value{sinkRefs[0].ToValue()}); err != nil || term != "Error" {
		t.Errorf("duplicate AddSink = %q, %v", term, err)
	}
	if term, res, err := ctrl.Invoke(ctx, "SinkCount", nil); err != nil || term != "OK" {
		t.Fatalf("SinkCount = %q, %v", term, err)
	} else if n, _ := res[0].AsInt(); n != 2 {
		t.Errorf("sink count = %d", n)
	}

	// Produce three frames into the binding object.
	producer, err := node.Bind(streamRef, channel.BindConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	for i := 0; i < 3; i++ {
		if err := producer.Flow(ctx, "video", values.BytesVal([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool { return consumers[0].count() == 3 && consumers[1].count() == 3 })

	// Detach one sink; further frames only reach the other.
	if term, _, err := ctrl.Invoke(ctx, "RemoveSink", []values.Value{sinkRefs[0].ToValue()}); err != nil || term != "OK" {
		t.Fatalf("RemoveSink = %q, %v", term, err)
	}
	if term, _, err := ctrl.Invoke(ctx, "RemoveSink", []values.Value{sinkRefs[0].ToValue()}); err != nil || term != "NotFound" {
		t.Errorf("second RemoveSink = %q, %v", term, err)
	}
	if err := producer.Flow(ctx, "video", values.BytesVal([]byte{9})); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return consumers[1].count() == 4 })
	if consumers[0].count() != 3 {
		t.Errorf("detached consumer received %d frames, want 3", consumers[0].count())
	}

	// Bad sink reference value.
	if term, _, err := ctrl.Invoke(ctx, "AddSink", []values.Value{naming.InterfaceRef{}.ToValue()}); err != nil {
		t.Fatal(err)
	} else if term != "Error" {
		// A zero ref decodes but fails to bind.
		t.Errorf("zero-ref AddSink = %q", term)
	}
}

func TestStreamBindingCheckpointRestore(t *testing.T) {
	net := netsim.New(2)
	reloc := relocator.New()
	node, err := engineering.NewNode(engineering.NodeConfig{
		ID: "alpha", Endpoint: "sim://alpha", Transport: net.From("alpha"), Locations: reloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.Behaviors().Register("collector", func(values.Value) (engineering.Behavior, error) {
		return &collector{}, nil
	})
	RegisterStreamBinding(node.Behaviors(), "core.stream-binding", func(ref naming.InterfaceRef) (FlowSender, error) {
		return node.Bind(ref, channel.BindConfig{Locator: reloc})
	})
	capsule, _ := node.CreateCapsule()
	cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cobj, err := cluster.CreateObject("collector", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	sinkRef, err := cobj.AddInterface(frameStream())
	if err != nil {
		t.Fatal(err)
	}
	bindObj, err := cluster.CreateObject("core.stream-binding", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	sb := bindObj.Behavior().(*streamBinding)
	term, _, err := sb.Invoke(context.Background(), "AddSink", []values.Value{sinkRef.ToValue()})
	if err != nil || term != "OK" {
		t.Fatalf("AddSink = %q, %v", term, err)
	}
	state, err := sb.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	restored := &streamBinding{
		bind: func(ref naming.InterfaceRef) (FlowSender, error) {
			return node.Bind(ref, channel.BindConfig{Locator: reloc})
		},
		sinks: make(map[naming.InterfaceID]sinkEntry),
	}
	if err := restored.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	restored.Flow("video", values.BytesVal([]byte{1}))
	coll := cobj.Behavior().(*collector)
	waitCond(t, func() bool { return coll.count() == 1 })

	if err := restored.RestoreState(values.Int(1)); err == nil {
		t.Error("non-seq state should fail")
	}
	if err := restored.RestoreState(values.Seq(values.Int(1))); err == nil {
		t.Error("bad ref in state should fail")
	}
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
