package mgmt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/values"
)

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	if _, ok := FromContext(ctx); ok {
		t.Fatal("nil tracer injected a span context")
	}
	sp.Fail(errors.New("boom"))
	if sp.End() != 0 {
		t.Fatal("nil span has a duration")
	}
	if !sp.Context().IsZero() {
		t.Fatal("nil span has a context")
	}
	if tr.Spans() != nil || tr.Trace(1) != nil || tr.TraceIDs() != nil {
		t.Fatal("nil tracer retained spans")
	}
}

func TestSpanNestingAndTraceAssembly(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.Start(context.Background(), "root")
	sc := root.Context()
	if sc.IsZero() {
		t.Fatal("root has zero context")
	}
	cctx, child := tr.Start(ctx, "child")
	if child.Context().Trace != sc.Trace {
		t.Fatal("child left the trace")
	}
	_, grand := tr.Start(cctx, "grandchild")
	grand.Fail(errors.New("leaf failed"))
	grand.End()
	child.End()
	root.End()

	spans := tr.Trace(sc.Trace)
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(spans))
	}
	text := RenderTrace(spans)
	for _, want := range []string{"root", "child", "grandchild", "leaf failed"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, text)
		}
	}
	// The grandchild must be indented deeper than the child.
	if strings.Index(text, "    child") < 0 || strings.Index(text, "      grandchild") < 0 {
		t.Fatalf("tree not indented by depth:\n%s", text)
	}
}

func TestStartRemoteParentsAcrossTheWire(t *testing.T) {
	client := NewTracer(16)
	server := NewTracer(16)
	_, csp := client.Start(context.Background(), "transport")
	wire := csp.Context() // what the trace extension carries

	_, ssp := server.StartRemote(context.Background(), "dispatch",
		SpanContext{Trace: wire.Trace, Span: wire.Span})
	if ssp.Context().Trace != wire.Trace {
		t.Fatal("remote span did not join the caller's trace")
	}
	ssp.End()
	got := server.Trace(wire.Trace)
	if len(got) != 1 || got[0].Parent != wire.Span {
		t.Fatalf("dispatch span not parented under transport: %+v", got)
	}

	// A zero parent (untraced peer) still yields a local root span.
	_, orphan := server.StartRemote(context.Background(), "dispatch", SpanContext{})
	if orphan.Context().IsZero() {
		t.Fatal("untraced remote call produced no span")
	}
}

func TestTracerRingBoundsAndStats(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		_, sp := tr.Start(context.Background(), "s")
		sp.End()
	}
	if n := len(tr.Spans()); n != 4 {
		t.Fatalf("ring retained %d spans, want 4", n)
	}
	st := tr.Stats()
	if st.Started != 10 || st.Finished != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", st.Dropped)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.Start(context.Background(), "root")
				_, child := tr.Start(ctx, "child")
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if st := tr.Stats(); st.Finished != 8*200*2 {
		t.Fatalf("finished = %d", st.Finished)
	}
}

func TestManagementDomainAndService(t *testing.T) {
	var disabled *Management
	if disabled.ChannelClient("x") != nil || disabled.ChannelServer("x") != nil ||
		disabled.Group("x") != nil || disabled.Tx("x") != nil ||
		disabled.TraderShards("x") != nil || disabled.Sessions("x") != nil {
		t.Fatal("disabled domain handed out instruments")
	}
	if !strings.Contains(disabled.Dump(), "disabled") {
		t.Fatal("disabled dump")
	}
	term, res, err := disabled.ServeInvoke(context.Background(), "Dump", nil)
	if err != nil || term != "OK" || len(res) != 1 {
		t.Fatalf("disabled ServeInvoke = %s %v %v", term, res, err)
	}

	m := New()
	cc := m.ChannelClient("teller")
	cc.InvokeLatency.Observe(1500)
	ctx, sp := m.Tracer.Start(context.Background(), "op")
	_, child := m.Tracer.Start(ctx, "inner")
	child.End()
	sp.End()

	term, res, err = m.ServeInvoke(context.Background(), "Dump", nil)
	if err != nil || term != "OK" {
		t.Fatalf("Dump: %s %v", term, err)
	}
	text, _ := res[0].AsString()
	if !strings.Contains(text, "channel.client.teller.invoke_latency_ns") {
		t.Fatalf("dump missing metric:\n%s", text)
	}
	if !strings.Contains(text, "== traces ==") {
		t.Fatalf("dump missing trace section:\n%s", text)
	}
}

// stepClock is a time source that advances by step on every read.
func stepClock(step time.Duration) func() time.Time {
	now := time.Unix(1000, 0)
	return func() time.Time {
		now = now.Add(step)
		return now
	}
}

// TestTracerSetClock: span start times and durations come from the clock
// the tracer is given; a nil clock (or a nil tracer) changes nothing.
func TestTracerSetClock(t *testing.T) {
	tr := NewTracer(4)
	tr.SetClock(stepClock(time.Millisecond))
	tr.SetClock(nil)
	var nilTracer *Tracer
	nilTracer.SetClock(time.Now)
	_, sp := tr.Start(context.Background(), "op")
	if d := sp.End(); d != time.Millisecond {
		t.Fatalf("duration = %v, want one clock step", d)
	}
	spans := tr.Spans()
	if len(spans) != 1 || !spans[0].Start.Equal(time.Unix(1000, 0).Add(time.Millisecond)) {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestServiceAnswersConformToInterfaceType: every answer the management
// servant gives — failures included — is a declared termination of
// InterfaceType with well-typed results, as a typed client checks it.
func TestServiceAnswersConformToInterfaceType(t *testing.T) {
	it := InterfaceType()
	if err := it.Validate(); err != nil {
		t.Fatal(err)
	}
	if it.Name != InterfaceTypeName || len(it.Operations) != 4 {
		t.Fatalf("interface type = %s with %d operations", it.Name, len(it.Operations))
	}
	m := New()
	_, sp := m.Tracer.Start(context.Background(), "op")
	sp.End()
	id := values.Uint(uint64(m.Tracer.TraceIDs()[0]))
	calls := []struct {
		op   string
		args []values.Value
		term string
	}{
		{"Dump", nil, "OK"},
		{"Metrics", nil, "OK"},
		{"Traces", nil, "OK"},
		{"Trace", []values.Value{id}, "OK"},
		{"Trace", []values.Value{values.Uint(1)}, "Error"},
		{"Trace", []values.Value{values.Str("x")}, "Error"},
		{"Trace", nil, "Error"},
	}
	for _, c := range calls {
		op, ok := it.Operation(c.op)
		if !ok {
			t.Fatalf("%s is not an operation of %s", c.op, it.Name)
		}
		if c.term == "OK" {
			if err := op.CheckArgs(c.args); err != nil {
				t.Fatalf("%s args: %v", c.op, err)
			}
		}
		term, res, err := m.ServeInvoke(context.Background(), c.op, c.args)
		if err != nil || term != c.term {
			t.Fatalf("%s%v = %s, %v; want %s", c.op, c.args, term, err, c.term)
		}
		if err := op.CheckTermination(term, res); err != nil {
			t.Fatalf("%s%v answer: %v", c.op, c.args, err)
		}
	}
	if term, _, _ := m.ServeInvoke(context.Background(), "Reboot", nil); term != "Error" {
		t.Fatalf("unknown operation answered %s", term)
	}
}

// TestServiceTraceIndex: Traces lists one line per retained trace — id,
// span count, root name, root duration — and Trace renders one of them,
// whether its id arrives unsigned or signed.
func TestServiceTraceIndex(t *testing.T) {
	m := New()
	text := func(op string, args ...values.Value) string {
		t.Helper()
		term, res, err := m.ServeInvoke(context.Background(), op, args)
		if err != nil || term != "OK" {
			t.Fatalf("%s = %s, %v", op, term, err)
		}
		s, _ := res[0].AsString()
		return s
	}
	if got := text("Traces"); got != "(no traces retained)\n" {
		t.Fatalf("empty index = %q", got)
	}
	var disabled *Management
	if got := disabled.dumpTraceIndex(); !strings.Contains(got, "disabled") {
		t.Fatalf("disabled index = %q", got)
	}

	m.Tracer.SetClock(stepClock(time.Microsecond))
	ctx, root := m.Tracer.Start(context.Background(), "transfer")
	_, child := m.Tracer.Start(ctx, "withdraw")
	child.End()
	root.End()
	id := root.Context().Trace
	want := fmt.Sprintf("%016x  spans=2   root=%-30q total=%dns\n", uint64(id), "transfer", 3000)
	if got := text("Traces"); got != want {
		t.Fatalf("index = %q, want %q", got, want)
	}
	rendered := RenderTrace(m.Tracer.Trace(id))
	if got := text("Trace", values.Uint(uint64(id))); got != rendered {
		t.Fatalf("Trace(uint) = %q, want %q", got, rendered)
	}
	if got := text("Trace", values.Int(int64(id))); got != rendered {
		t.Fatalf("Trace(int) = %q, want %q", got, rendered)
	}
}
