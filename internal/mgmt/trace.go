// Package mgmt implements the ODP management functions of the
// engineering viewpoint: the tutorial names node, object and channel
// management as first-class parts of the infrastructure, and this package
// gives them something to manage with — per-invocation tracing across the
// channel stages (stub, binder, protocol object, server dispatch) and a
// metrics registry of atomic counters, gauges and log-bucketed histograms.
//
// Everything here is built to be safe to leave in hot paths permanently:
// every instrument pointer may be nil, and every method on a nil receiver
// is a no-op, so the disabled path costs exactly one nil check. The
// package depends only on internal/values (for the management service),
// never on the packages it instruments, so channel, coordination,
// transactions, trader and netsim can all import it without cycles.
package mgmt

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end interaction (for the bank: one
// transfer, however many channels, replicas and transaction participants
// it touches). It is minted at the client stub and propagated through the
// wire protocol as an optional message extension.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// SpanContext is the propagated part of a span: enough to parent a remote
// child. The zero SpanContext means "untraced".
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsZero reports whether the context carries no trace.
func (c SpanContext) IsZero() bool { return c.Trace == 0 }

// Span is one finished unit of work within a trace: a channel stage, a
// server dispatch, a replica update leg, a transaction participant phase.
type Span struct {
	Trace    TraceID
	ID       SpanID
	Parent   SpanID // zero for a root span
	Name     string
	Start    time.Time
	Duration time.Duration
	Err      string // non-empty when the work failed
}

type traceCtxKey struct{}

// ContextWith returns ctx carrying the span context, so downstream
// components (and remote peers, via the wire extension) can parent their
// spans under it.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, sc)
}

// FromContext extracts the ambient span context, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(traceCtxKey{}).(SpanContext)
	return sc, ok && !sc.IsZero()
}

// Tracer records spans into a bounded ring: the most recent spans win,
// so a long-running node keeps a steady window of recent interactions
// without growing. A nil *Tracer is a valid, disabled tracer — every
// method no-ops — which is how instrumentation ships always-on in hot
// paths.
type Tracer struct {
	nextID atomic.Uint64
	clock  func() time.Time

	started  atomic.Uint64
	finished atomic.Uint64
	dropped  atomic.Uint64 // spans overwritten before being read

	mu   sync.Mutex
	ring []Span
	next int  // ring write cursor
	full bool // ring has wrapped at least once
}

// DefaultSpanCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultSpanCapacity = 4096

// NewTracer returns a tracer retaining up to capacity finished spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{
		ring:  make([]Span, capacity),
		clock: time.Now,
	}
}

// SetClock replaces the tracer's time source (simulated time in tests).
// Not safe to call concurrently with Start.
func (t *Tracer) SetClock(clock func() time.Time) {
	if t == nil || clock == nil {
		return
	}
	t.clock = clock
}

// ActiveSpan is a started, not yet finished span. A nil *ActiveSpan (from
// a nil tracer) is valid: End, Fail and Context all no-op.
type ActiveSpan struct {
	tracer *Tracer
	span   Span
}

// Start begins a span. If ctx already carries a span context the new span
// joins that trace as a child; otherwise it starts a fresh trace. The
// returned context carries the new span, so nested work parents under it.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	parent, _ := FromContext(ctx)
	return t.start(ctx, name, parent)
}

// StartRemote begins a span parented under a context received from a
// remote peer (the trace extension of an inbound message). A zero parent
// starts a fresh trace, so untraced peers still produce local spans.
func (t *Tracer) StartRemote(ctx context.Context, name string, parent SpanContext) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	return t.start(ctx, name, parent)
}

func (t *Tracer) start(ctx context.Context, name string, parent SpanContext) (context.Context, *ActiveSpan) {
	t.started.Add(1)
	id := SpanID(t.nextID.Add(1))
	trace := parent.Trace
	if trace == 0 {
		// A fresh trace: derive the trace id from the span id so ids stay
		// unique per tracer without extra state.
		trace = TraceID(uint64(id)<<16 | 0xa11)
	}
	a := &ActiveSpan{
		tracer: t,
		span: Span{
			Trace:  trace,
			ID:     id,
			Parent: parent.Span,
			Name:   name,
			Start:  t.clock(),
		},
	}
	return ContextWith(ctx, SpanContext{Trace: trace, Span: id}), a
}

// Context returns the span's propagation context (zero for a nil span).
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.span.Trace, Span: a.span.ID}
}

// Fail annotates the span with a failure before End.
func (a *ActiveSpan) Fail(err error) {
	if a == nil || err == nil {
		return
	}
	a.span.Err = err.Error()
}

// End finishes the span and commits it to the tracer's ring. It reports
// the span's duration so callers can feed the same measurement into a
// histogram without a second clock read.
func (a *ActiveSpan) End() time.Duration {
	if a == nil {
		return 0
	}
	t := a.tracer
	a.span.Duration = t.clock().Sub(a.span.Start)
	t.finished.Add(1)
	t.mu.Lock()
	if t.ring[t.next].Trace != 0 && t.full {
		t.dropped.Add(1)
	}
	t.ring[t.next] = a.span
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
	return a.span.Duration
}

// TracerStats summarises tracer activity.
type TracerStats struct {
	Started  uint64
	Finished uint64
	Dropped  uint64
}

// Stats returns a snapshot of the tracer's counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		Started:  t.started.Load(),
		Finished: t.finished.Load(),
		Dropped:  t.dropped.Load(),
	}
}

// Spans returns the retained finished spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	start := 0
	n := t.next
	if t.full {
		start = t.next
		n = len(t.ring)
	}
	for i := 0; i < n; i++ {
		s := t.ring[(start+i)%len(t.ring)]
		if s.Trace != 0 {
			out = append(out, s)
		}
	}
	return out
}

// Trace returns the retained spans of one trace, in start order.
func (t *Tracer) Trace(id TraceID) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TraceIDs returns the distinct trace ids with retained spans, most
// recently finished last.
func (t *Tracer) TraceIDs() []TraceID {
	seen := make(map[TraceID]bool)
	var out []TraceID
	for _, s := range t.Spans() {
		if !seen[s.Trace] {
			seen[s.Trace] = true
			out = append(out, s.Trace)
		}
	}
	return out
}

// RenderTrace renders one trace as an indented tree with durations —
// the text form odpstat prints. Orphaned spans (parent not retained)
// appear at the root level.
func RenderTrace(spans []Span) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	children := make(map[SpanID][]Span)
	byID := make(map[SpanID]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	var roots []Span
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %016x (%d spans)\n", uint64(spans[0].Trace), len(spans))
	var walk func(s Span, depth int)
	walk = func(s Span, depth int) {
		fmt.Fprintf(&b, "%s%-*s %10s", strings.Repeat("  ", depth+1), 40-2*depth, s.Name, s.Duration.Round(time.Microsecond))
		if s.Err != "" {
			fmt.Fprintf(&b, "  !%s", s.Err)
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
