package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/values"
)

// orderedCollector records flow elements in arrival order.
type orderedCollector struct {
	mu     sync.Mutex
	events []string // "flow:seq"
}

func (c *orderedCollector) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	return "", nil, nil
}

func (c *orderedCollector) Flow(flow string, elem values.Value) {
	seq, _ := elem.AsUint()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, flow+":"+string(rune('0'+seq)))
}

func (c *orderedCollector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.events...)
}

// directSender short-circuits the channel: flows go straight to the
// collector, so ordering assertions are deterministic.
type directSender struct{ c *orderedCollector }

func (d directSender) Flow(_ context.Context, flow string, elem values.Value) error {
	d.c.Flow(flow, elem)
	return nil
}

func (directSender) Close() error { return nil }

func newLipSync(t *testing.T, cfg LipSyncConfig, c *orderedCollector) *lipSyncBinding {
	t.Helper()
	reg := engineering.NewBehaviorRegistry()
	RegisterLipSyncBinding(reg, "lipsync", func(naming.InterfaceRef) (FlowSender, error) {
		return directSender{c}, nil
	}, cfg)
	b, err := reg.New("lipsync", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	ls := b.(*lipSyncBinding)
	// Attach one sink directly (bypassing the ref plumbing covered by the
	// stream-binding tests).
	ls.inner.sinks[naming.InterfaceID{Nonce: 1}] = sinkEntry{sender: directSender{c}}
	return ls
}

func TestLipSyncAlignsFlows(t *testing.T) {
	c := &orderedCollector{}
	ls := newLipSync(t, LipSyncConfig{Flows: []string{"audio", "video"}}, c)

	// Video runs ahead: nothing is delivered until audio catches up.
	ls.Flow("video", values.Uint(0))
	ls.Flow("video", values.Uint(1))
	if got := c.snapshot(); len(got) != 0 {
		t.Fatalf("delivered before alignment: %v", got)
	}
	ls.Flow("audio", values.Uint(0))
	if got := strings.Join(c.snapshot(), ","); got != "audio:0,video:0" {
		t.Fatalf("first group = %q", got)
	}
	ls.Flow("audio", values.Uint(1))
	if got := strings.Join(c.snapshot(), ","); got != "audio:0,video:0,audio:1,video:1" {
		t.Fatalf("second group = %q", got)
	}
	// Stats: two aligned groups, no stalls.
	term, res, err := ls.Invoke(context.Background(), "SyncStats", nil)
	if err != nil || term != "OK" {
		t.Fatal(err)
	}
	if g, _ := res[0].AsUint(); g != 2 {
		t.Errorf("groups = %d", g)
	}
	if s, _ := res[1].AsUint(); s != 0 {
		t.Errorf("stalled = %d", s)
	}
}

func TestLipSyncUnsyncedFlowPassesThrough(t *testing.T) {
	c := &orderedCollector{}
	ls := newLipSync(t, LipSyncConfig{Flows: []string{"audio", "video"}}, c)
	ls.Flow("subtitles", values.Uint(7))
	if got := strings.Join(c.snapshot(), ","); got != "subtitles:7" {
		t.Fatalf("pass-through = %q", got)
	}
}

func TestLipSyncWindowOverflowReleasesUnaligned(t *testing.T) {
	c := &orderedCollector{}
	ls := newLipSync(t, LipSyncConfig{Flows: []string{"audio", "video"}, Window: 3}, c)
	// Audio stalls entirely; after window+1 video frames the queue flushes.
	for i := uint64(0); i < 4; i++ {
		ls.Flow("video", values.Uint(i))
	}
	if got := len(c.snapshot()); got != 4 {
		t.Fatalf("flushed = %d events (%v)", got, c.snapshot())
	}
	_, res, err := ls.Invoke(context.Background(), "SyncStats", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := res[1].AsUint(); s != 1 {
		t.Errorf("stalled = %d, want 1", s)
	}
}

func TestLipSyncRequiresTwoFlows(t *testing.T) {
	reg := engineering.NewBehaviorRegistry()
	RegisterLipSyncBinding(reg, "bad", func(naming.InterfaceRef) (FlowSender, error) {
		return nil, nil
	}, LipSyncConfig{Flows: []string{"solo"}})
	if _, err := reg.New("bad", values.Null()); err == nil {
		t.Fatal("single-flow lip-sync should be rejected")
	}
}

func TestLipSyncControlDelegation(t *testing.T) {
	c := &orderedCollector{}
	ls := newLipSync(t, LipSyncConfig{Flows: []string{"a", "b"}}, c)
	term, res, err := ls.Invoke(context.Background(), "SinkCount", nil)
	if err != nil || term != "OK" {
		t.Fatal(err)
	}
	if n, _ := res[0].AsInt(); n != 1 {
		t.Errorf("sinks = %d", n)
	}
	// Checkpoint round trip keeps the sink set shape.
	state, err := ls.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if state.Kind() != values.KindSeq {
		t.Errorf("state kind = %v", state.Kind())
	}
}

// TestLipSyncRestoreRebindsSinks: a lip-sync binding restored from
// another's checkpoint re-binds to the same sinks and keeps aligning its
// flows to them; a state that is not a sink list is refused.
func TestLipSyncRestoreRebindsSinks(t *testing.T) {
	c := &orderedCollector{}
	var bound []naming.InterfaceRef
	reg := engineering.NewBehaviorRegistry()
	RegisterLipSyncBinding(reg, "lipsync", func(ref naming.InterfaceRef) (FlowSender, error) {
		bound = append(bound, ref)
		return directSender{c}, nil
	}, LipSyncConfig{Flows: []string{"audio", "video"}})
	newBinding := func() *lipSyncBinding {
		b, err := reg.New("lipsync", values.Null())
		if err != nil {
			t.Fatal(err)
		}
		return b.(*lipSyncBinding)
	}

	src := newBinding()
	sink := naming.InterfaceRef{ID: naming.InterfaceID{Nonce: 7}, TypeName: "Screen", Endpoint: "sim://tv"}
	src.inner.sinks[sink.ID] = sinkEntry{ref: sink, sender: directSender{c}}
	state, err := src.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}

	dst := newBinding()
	if err := dst.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if len(bound) != 1 || bound[0] != sink {
		t.Fatalf("restore bound %v, want the checkpointed sink", bound)
	}
	if _, res, err := dst.Invoke(context.Background(), "SinkCount", nil); err != nil || !res[0].Equal(values.Int(1)) {
		t.Fatalf("SinkCount after restore = %v, %v", res, err)
	}
	dst.Flow("video", values.Uint(0))
	dst.Flow("audio", values.Uint(0))
	if got := strings.Join(c.snapshot(), ","); got != "audio:0,video:0" {
		t.Fatalf("restored binding delivered %q", got)
	}
	if err := newBinding().RestoreState(values.Int(1)); err == nil {
		t.Fatal("a non-seq state was restored")
	}
}
