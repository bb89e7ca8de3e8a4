package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run measures every layer from outside, in two ways.
//
// Sums: each decorator adds the time at which an operation crossed its
// boundary to an accumulator. Every operation crosses every boundary once,
// so the mean time between two boundaries is the difference of two sums
// over the operation count — exact under any concurrency, no matching of
// events to operations, and a few atomic adds per operation. The boundaries
// tile an interrogation, so the layer means add up to its latency.
//
// Spans: the first operations of the traced run (and, on the trader
// workloads, every sampled operation) are also recorded as spans that share
// the operation's id and are written to the trace file.

// acc is one accumulator: a sum of timestamps or durations and their count.
type acc struct {
	sum atomic.Int64
	n   atomic.Int64
	_   [48]byte // keep neighbours off this cache line
}

func (a *acc) add(v int64) {
	a.sum.Add(v)
	a.n.Add(1)
}

func (a *acc) addN(v, n int64) {
	a.sum.Add(v * n)
	a.n.Add(n)
}

// meanUs returns the mean in microseconds of a duration accumulator.
func (a *acc) meanUs() float64 {
	n := a.n.Load()
	if n == 0 {
		return 0
	}
	return float64(a.sum.Load()) / float64(n) / 1e3
}

// The boundaries an interrogation crosses, in order (Fig. 4 of the
// tutorial: stub, binder, protocol object on either side of the wire).
const (
	bInvokeIn   = iota // Binding.Invoke entered
	bStageOut          // innermost client stage saw the request
	bCliSendIn         // client Conn.Send entered
	bCliSendOut        // client Conn.Send returned
	bSrvRecv           // server Conn.Recv returned the request
	bHandlerIn         // servant entered
	bHandlerOut        // servant returned
	bSrvSendIn         // server Conn.Send entered
	bSrvSendOut        // server Conn.Send returned
	bCliRecv           // client Conn.Recv returned the reply
	bStageIn           // innermost client stage saw the reply
	bInvokeOut         // Binding.Invoke returned
	nBoundaries
)

// Duration accumulators of the trader and stream workloads.
const (
	dShardImport = iota
	dExport
	dWithdraw
	dModify
	dRepoRead
	dStreamSend
	dStreamRecv
	nDurations
)

// span is one timed interval of one operation. Times are ns since the
// tracer's base.
type span struct {
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the operation's spans, -1 for the root
}

// opTrace holds the spans of one operation while it runs.
type opTrace struct {
	id string

	// marks are the boundary times of an interrogation (0 = not crossed).
	marks [nBoundaries]atomic.Int64

	mu    sync.Mutex
	spans []span
}

func (o *opTrace) mark(b int, t int64) { o.marks[b].Store(t) }

func (o *opTrace) add(name string, start, end int64) {
	o.mu.Lock()
	o.spans = append(o.spans, span{Op: o.id, Name: name, Start: start, End: end})
	o.mu.Unlock()
}

// tracer is the shared state of the decorators of one traced run.
type tracer struct {
	base time.Time
	on   atomic.Bool // sums and counters are being taken

	bound [nBoundaries]acc
	dur   [nDurations]acc

	// netsim counters, both ends of every decorated connection.
	writes    atomic.Int64
	frames    atomic.Int64
	wireBytes atomic.Int64
	dials     atomic.Int64

	// Span capture of interrogations: the stage decorator files the
	// caller's current opTrace under (binding, correlation) so the
	// connection decorators, which see only frames, can find it.
	capture  atomic.Bool
	captured atomic.Int64
	mu       sync.Mutex
	byKey    map[opKey]*opTrace
	// byName finds a caller's slot from the customer name in its
	// requests; written during set-up only.
	byName map[string]*callerSlot
	// sampled is the one operation being recorded on a trader workload
	// (those run alone, see tradeInstance.run).
	sampled atomic.Pointer[opTrace]

	doneMu sync.Mutex
	done   []*opTrace
	// frames captured for the wire replay: requests and replies.
	reqFrames, repFrames [][]byte
}

type opKey struct{ binding, correl uint64 }

// callerSlot is what the decorators know about one caller: the operation
// it has in flight.
type callerSlot struct {
	cur atomic.Pointer[opTrace]
}

func newTracer() *tracer {
	return &tracer{
		base:   time.Now(),
		byKey:  make(map[opKey]*opTrace),
		byName: make(map[string]*callerSlot),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// reset zeroes every sum and counter; call it with no operation in flight.
func (t *tracer) reset() {
	for i := range t.bound {
		t.bound[i].sum.Store(0)
		t.bound[i].n.Store(0)
	}
	for i := range t.dur {
		t.dur[i].sum.Store(0)
		t.dur[i].n.Store(0)
	}
	t.writes.Store(0)
	t.frames.Store(0)
	t.wireBytes.Store(0)
}

// netsimCounters adds what the connection decorators counted, per
// completed operation.
func (t *tracer) netsimCounters(ops float64, m metrics) {
	if w := t.writes.Load(); w > 0 {
		m["netsim.writes_per_op"] = float64(w) / ops
		m["netsim.frames_per_write"] = float64(t.frames.Load()) / float64(w)
		m["netsim.wire_bytes_per_op"] = float64(t.wireBytes.Load()) / ops
	}
	m["netsim.dials"] = float64(t.dials.Load())
}

func (t *tracer) file(key opKey, o *opTrace) {
	t.mu.Lock()
	t.byKey[key] = o
	t.mu.Unlock()
}

func (t *tracer) find(key opKey) *opTrace {
	t.mu.Lock()
	o := t.byKey[key]
	t.mu.Unlock()
	return o
}

func (t *tracer) unfile(key opKey) {
	t.mu.Lock()
	delete(t.byKey, key)
	t.mu.Unlock()
}

func (t *tracer) finish(o *opTrace) {
	t.doneMu.Lock()
	t.done = append(t.done, o)
	t.doneMu.Unlock()
}

// between returns the mean time in microseconds from boundary a to
// boundary b. The difference of two means of timestamps is a mean duration
// only if the same operations crossed both; mismatch checks that.
func (t *tracer) between(a, b int) float64 {
	na, nb := t.bound[a].n.Load(), t.bound[b].n.Load()
	if na == 0 || nb == 0 {
		return 0
	}
	return (float64(t.bound[b].sum.Load())/float64(nb) - float64(t.bound[a].sum.Load())/float64(na)) / 1e3
}

// mismatch returns how far apart the crossing counts of the given
// boundaries are: 0 when every operation crossed each of them once. A call
// that failed half-way, was retried or was answered twice makes it
// non-zero, and one unmatched crossing in a run of 100,000 operations would
// shift a layer mean by the run's length over 100,000.
func (t *tracer) mismatch(bs []int) int64 {
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, b := range bs {
		n := t.bound[b].n.Load()
		lo, hi = min(lo, n), max(hi, n)
	}
	return hi - lo
}

// interrogationSpans turns the boundary marks of one interrogation into
// its spans. Boundaries the run could not observe (a server in another
// process) leave their spans out.
func interrogationSpans(o *opTrace) []span {
	m := func(b int) int64 { return o.marks[b].Load() }
	var out []span
	add := func(name string, from, to int) {
		s, e := m(from), m(to)
		if s == 0 || e == 0 {
			return
		}
		if e < s { // a reply can be read before the peer's Send returns
			e = s
		}
		out = append(out, span{Op: o.id, Name: name, Start: s, End: e})
	}
	add("invoke", bInvokeIn, bInvokeOut)
	add("channel.client.out", bInvokeIn, bCliSendIn)
	add("channel.client.sendq", bStageOut, bCliSendIn)
	add("netsim.send", bCliSendIn, bCliSendOut)
	if m(bSrvRecv) != 0 {
		add("netsim.transit", bCliSendOut, bSrvRecv)
		add("channel.server.pre", bSrvRecv, bHandlerIn)
		add("servant", bHandlerIn, bHandlerOut)
		add("channel.server.post", bHandlerOut, bSrvSendIn)
		add("netsim.send.reply", bSrvSendIn, bSrvSendOut)
		add("netsim.transit.reply", bSrvSendOut, bCliRecv)
	} else {
		add("netsim.transit", bCliSendOut, bCliRecv)
	}
	add("channel.client.in", bCliRecv, bInvokeOut)
	return out
}

// linkSpans sets each span's Parent to the innermost span of the same
// operation that contains it, and returns the spans ordered by start.
func linkSpans(spans []span) []span {
	out := append([]span(nil), spans...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End > out[j].End
	})
	var stack []int
	for i := range out {
		for len(stack) > 0 {
			top := out[stack[len(stack)-1]]
			if top.Start <= out[i].Start && out[i].End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		out[i].Parent = -1
		if len(stack) > 0 {
			out[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return out
}

// selfTimes returns, for each linked span, its duration minus the part of
// it that its child spans cover. Children may overlap one another (the
// legs of a parallel fan-out), so the covered part is the length of the
// union of their intervals, not the sum.
func selfTimes(linked []span) []int64 {
	children := make([][]int, len(linked))
	for i, s := range linked {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(linked))
	for i, s := range linked {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return linked[kids[a]].Start < linked[kids[b]].Start })
		var covered, upTo int64
		upTo = s.Start
		for _, k := range kids {
			ks, ke := linked[k].Start, linked[k].End
			if ks < upTo {
				ks = upTo
			}
			if ke > s.End {
				ke = s.End
			}
			if ke > ks {
				covered += ke - ks
				upTo = ke
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfMeans links the spans of each operation and returns the mean self
// time in microseconds per operation of every span name, and the count of
// spans per operation of every name.
func selfMeans(ops [][]span) (selfUs, perOp map[string]float64) {
	selfUs, perOp = map[string]float64{}, map[string]float64{}
	if len(ops) == 0 {
		return
	}
	for _, spans := range ops {
		linked := linkSpans(spans)
		for i, st := range selfTimes(linked) {
			selfUs[linked[i].Name] += float64(st) / 1e3
			perOp[linked[i].Name]++
		}
	}
	for k := range selfUs {
		selfUs[k] /= float64(len(ops))
		perOp[k] /= float64(len(ops))
	}
	return
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Ops      int    `json:"ops"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, ops [][]span) error {
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Note:     "times are ns since the tracer was made; parent indexes this file's spans, -1 for an operation's root",
		Ops:      len(ops),
	}
	for _, spans := range ops {
		linked := linkSpans(spans)
		base := len(tf.Spans)
		for _, s := range linked {
			if s.Parent >= 0 {
				s.Parent += base
			}
			tf.Spans = append(tf.Spans, s)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
