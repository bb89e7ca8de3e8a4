package mgmt

import (
	"fmt"
	"strings"
)

// This file defines the per-component instrument bundles. A bundle holds
// only what no component counts for itself — the tracer, histograms and
// queue-depth gauges; a count a component's own Stats() already keeps,
// for one component or for a set of them, is read through (see Read),
// never mirrored.
// Each instrumented package takes exactly one optional pointer to its
// bundle; a nil bundle disables that component's instrumentation at the
// cost of one nil check, which is what lets the hooks ship permanently
// inside the hot paths that earlier perf work tuned.

// ChannelClientInstruments instrument the client end of a channel: the
// stub, binder and protocol stages of one binding (or a family of
// bindings sharing a name). The invocation, failure, retry and relocation
// counts are the session manager's SessionStats, read through.
type ChannelClientInstruments struct {
	Tracer *Tracer

	InvokeLatency *Histogram // end-to-end interrogation latency, ns
}

// ChannelServerInstruments instrument the server end: dispatch of inbound
// calls to servants, and the transport sessions those calls arrive on
// (each accepted connection is one multi-binding session). The server's
// counters are its ServerStats, read through.
type ChannelServerInstruments struct {
	Tracer *Tracer

	DispatchLatency    *Histogram // servant execution latency, ns
	BindingsPerSession *Histogram // distinct binding ids seen, observed at session close

	// Reply batching: concurrent replies to one inbound session coalesce
	// into vectored writes, mirroring the client-side session queue.
	ReplyFramesPerWrite *Histogram // reply frames per transport write
	ReplyBatchBytes     *Histogram // bytes per batched reply write
	ReplyQueueDepth     *Gauge     // reply frames queued awaiting the writer
}

// SessionInstruments instrument the client-side session layer: the
// per-(transport, endpoint) shared connections that bindings multiplex
// over. The manager's counters are its SessionStats, read through.
type SessionInstruments struct {
	BindingsAtDeath *Histogram // bindings attached when a session died or was released

	// Adaptive frame batching: the caller that finds a session's queue
	// idle writes whatever is queued as one vectored write, so these show
	// the batch sizes the workload actually achieves (1 frame/write when
	// idle, growing under concurrent load).
	FramesPerWrite *Histogram // frames per transport write
	BatchBytes     *Histogram // bytes per transport write
	SendQueueDepth *Gauge     // frames queued awaiting the writer
}

// GroupInstruments instrument a replica group (coordination); its
// counters are its GroupStats, read through.
type GroupInstruments struct {
	Tracer *Tracer

	UpdateLatency *Histogram // full fan-out latency, ns
}

// TxInstruments instrument a transaction coordinator; its commit and abort
// counts are its Stats, read through.
type TxInstruments struct {
	Tracer *Tracer

	Vetoes        *Counter
	CommitLatency *Histogram // two-phase commit latency, ns
}

// ShardInstruments instrument the trading function's front-end: the
// routing work and latency per import. The ring shape and the counters are
// its ShardStats, read through.
type ShardInstruments struct {
	ShardsPerImport *Histogram // shard queries issued per import
	ImportLatency   *Histogram // front-end import latency, ns
}

// ---------------------------------------------------------------------------
// Management: the per-node (or per-system) aggregate

// Management bundles one observability domain: a tracer and a metrics
// registry, with the constructors that wire them to components and the
// text dumps that the management interface serves.
type Management struct {
	Registry *Registry
	Tracer   *Tracer
}

// New creates an enabled management domain with a default-capacity
// tracer. (A nil *Management is the disabled domain: all its instrument
// constructors return nil bundles.)
func New() *Management {
	return &Management{
		Registry: NewRegistry(),
		Tracer:   NewTracer(0),
	}
}

// ChannelClient resolves a client-channel bundle named name (e.g. the
// bound interface's type). Metrics land under channel.client.<name>.*.
func (m *Management) ChannelClient(name string) *ChannelClientInstruments {
	if m == nil {
		return nil
	}
	p := "channel.client." + name + "."
	return &ChannelClientInstruments{
		Tracer:        m.Tracer,
		InvokeLatency: m.Registry.Histogram(p + "invoke_latency_ns"),
	}
}

// ChannelServer resolves a server-channel bundle named name (e.g. the
// node id).
func (m *Management) ChannelServer(name string) *ChannelServerInstruments {
	if m == nil {
		return nil
	}
	p := "channel.server." + name + "."
	return &ChannelServerInstruments{
		Tracer:              m.Tracer,
		DispatchLatency:     m.Registry.Histogram(p + "dispatch_latency_ns"),
		BindingsPerSession:  m.Registry.Histogram(p + "bindings_per_session"),
		ReplyFramesPerWrite: m.Registry.Histogram(p + "reply_frames_per_write"),
		ReplyBatchBytes:     m.Registry.Histogram(p + "reply_batch_bytes"),
		ReplyQueueDepth:     m.Registry.Gauge(p + "reply_queue_depth"),
	}
}

// Sessions resolves a client-side session-layer bundle named name (e.g.
// the client host). Metrics land under session.<name>.*.
func (m *Management) Sessions(name string) *SessionInstruments {
	if m == nil {
		return nil
	}
	p := "session." + name + "."
	return &SessionInstruments{
		BindingsAtDeath: m.Registry.Histogram(p + "bindings_at_death"),
		FramesPerWrite:  m.Registry.Histogram(p + "frames_per_write"),
		BatchBytes:      m.Registry.Histogram(p + "batch_bytes"),
		SendQueueDepth:  m.Registry.Gauge(p + "send_queue_depth"),
	}
}

// Group resolves a replica-group bundle.
func (m *Management) Group(name string) *GroupInstruments {
	if m == nil {
		return nil
	}
	p := "replica." + name + "."
	return &GroupInstruments{
		Tracer:        m.Tracer,
		UpdateLatency: m.Registry.Histogram(p + "update_latency_ns"),
	}
}

// Tx resolves a transaction-coordinator bundle.
func (m *Management) Tx(name string) *TxInstruments {
	if m == nil {
		return nil
	}
	p := "tx." + name + "."
	return &TxInstruments{
		Tracer:        m.Tracer,
		Vetoes:        m.Registry.Counter(p + "vetoes"),
		CommitLatency: m.Registry.Histogram(p + "commit_latency_ns"),
	}
}

// TraderShards resolves a trading front-end bundle. Metrics land under
// trader.<name>.shards.*.
func (m *Management) TraderShards(name string) *ShardInstruments {
	if m == nil {
		return nil
	}
	p := "trader." + name + ".shards."
	return &ShardInstruments{
		ShardsPerImport: m.Registry.Histogram(p + "shards_per_import"),
		ImportLatency:   m.Registry.Histogram(p + "import_latency_ns"),
	}
}

// Dump renders the whole domain — metrics, tracer stats and recent
// traces — as text.
func (m *Management) Dump() string {
	if m == nil {
		return "(management disabled)\n"
	}
	var b strings.Builder
	b.WriteString("== metrics ==\n")
	b.WriteString(m.Registry.Dump())
	ts := m.Tracer.Stats()
	fmt.Fprintf(&b, "== traces ==\nspans started=%d finished=%d dropped=%d\n",
		ts.Started, ts.Finished, ts.Dropped)
	ids := m.Tracer.TraceIDs()
	const maxListed = 10
	if len(ids) > maxListed {
		fmt.Fprintf(&b, "(%d traces retained, newest %d listed)\n", len(ids), maxListed)
		ids = ids[len(ids)-maxListed:]
	}
	for _, id := range ids {
		spans := m.Tracer.Trace(id)
		fmt.Fprintf(&b, "trace %016x: %d spans, root %q\n", uint64(id), len(spans), rootName(spans))
	}
	return b.String()
}

func rootName(spans []Span) string {
	byID := make(map[SpanID]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent == 0 || !byID[s.Parent] {
			return s.Name
		}
	}
	return "?"
}
