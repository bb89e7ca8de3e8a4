package mgmt

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter
// no-ops, so instrumented code never branches on configuration.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (zero for nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, live bindings).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value (zero for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i). Fixed
// log-spaced buckets make histograms lock-free to record into and
// trivially mergeable across shards — the properties the observability
// layer needs to sit inside hot paths.
const histBuckets = 65 // bits.Len64 ranges over 0..64

// Histogram is a lock-cheap latency/size histogram: recording is two
// atomic adds and one atomic increment, with no locks and no allocation.
// Values are dimensionless uint64s; latency users record nanoseconds.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Snapshot returns a point-in-time copy of the histogram. Because
// recording is not atomic across the three fields, a snapshot taken under
// concurrent writes may be torn by a in-flight observation; counts and
// buckets are each individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram, the unit of
// merging and quantile estimation.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) as the upper bound of the
// bucket containing the target rank — a conservative estimate with
// bounded relative error 2x, which is what log-spaced buckets buy.
// An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: the smallest value with at least ceil(q*N) samples at
	// or below it, so p99 of 10 samples is the slowest one, not the 9th.
	r := int64(math.Ceil(q*float64(s.Count))) - 1
	if r < 0 {
		r = 0
	}
	rank := uint64(r)
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if n > 0 && seen > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Mean returns the exact mean of the observed values (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// bucketUpper returns the largest value falling in bucket i.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// ---------------------------------------------------------------------------
// Registry

// Registry names and owns instruments. Components resolve their
// instruments once at configuration time (the returned pointers are
// stable), so the per-operation path never touches the registry's lock.
// Beside the instruments it owns, a registry reads the counters components
// keep themselves: see Read.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sources  map[string]func() any // name prefix -> a component's Stats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		sources:  make(map[string]func() any),
	}
}

// Read makes a component's own counters visible through m: every Dump
// calls stats and prints each exported integer field of its result as
// <prefix><snake_case(field)>, unsigned fields as counters and signed ones
// as gauges; a HistogramSnapshot field prints as a histogram (one a set's
// member keeps itself, so it leaves the dump with the member). A result
// that is a map keyed by string is a set whose members come and go (the
// endpoints a detector watches, the shards on a ring): each member prints
// as <prefix><key>.<field>, and one that has left is no longer shown. A
// component that already counts an event in its Stats is observed this
// way rather than counting the event a second time. Registering a prefix
// again replaces its source; a nil m is a no-op.
func Read[S any](m *Management, prefix string, stats func() S) {
	if m == nil {
		return
	}
	r := m.Registry
	r.mu.Lock()
	r.sources[prefix] = func() any { return stats() }
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil, which is itself a valid disabled counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Dump renders every instrument and every Read source as sorted text, the
// form served by the management interface and printed by odpstat.
// Histograms whose name ends in _ns print as durations, the rest as plain
// numbers.
func (r *Registry) Dump() string {
	if r == nil {
		return "(metrics disabled)\n"
	}
	counters := make(map[string]uint64)
	gauges := make(map[string]int64)
	r.mu.Lock()
	for k, c := range r.counters {
		counters[k] = c.Load()
	}
	for k, g := range r.gauges {
		gauges[k] = g.Load()
	}
	hists := make(map[string]HistogramSnapshot, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h.Snapshot()
	}
	sources := make(map[string]func() any, len(r.sources))
	for k, src := range r.sources {
		sources[k] = src
	}
	r.mu.Unlock()
	// Sources run outside the registry lock: one may take its component's
	// lock, under which that component may resolve an instrument here.
	for prefix, src := range sources {
		flatten(prefix, reflect.ValueOf(src()), counters, gauges, hists)
	}

	var b strings.Builder
	for _, name := range sortedKeys(counters) {
		fmt.Fprintf(&b, "counter   %-44s %d\n", name, counters[name])
	}
	for _, name := range sortedKeys(gauges) {
		fmt.Fprintf(&b, "gauge     %-44s %d\n", name, gauges[name])
	}
	for _, name := range sortedKeys(hists) {
		s := hists[name]
		if strings.HasSuffix(name, "_ns") {
			fmt.Fprintf(&b, "histogram %-44s n=%d mean=%s p50=%s p99=%s max≤%s\n",
				name, s.Count,
				time.Duration(s.Mean()).Round(time.Microsecond),
				time.Duration(s.Quantile(0.50)).Round(time.Microsecond),
				time.Duration(s.Quantile(0.99)).Round(time.Microsecond),
				time.Duration(s.Quantile(1)).Round(time.Microsecond))
			continue
		}
		fmt.Fprintf(&b, "histogram %-44s n=%d mean=%.1f p50=%d p99=%d max≤%d\n",
			name, s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.99), s.Quantile(1))
	}
	if b.Len() == 0 {
		return "(no instruments)\n"
	}
	return b.String()
}

// flatten adds each exported field of the struct v under
// prefix+snake(field): unsigned integers to counters, signed ones to
// gauges, histogram snapshots to hists. A map keyed by string flattens
// each member under prefix+key+".". Anything else is skipped.
func flatten(prefix string, v reflect.Value, counters map[string]uint64, gauges map[string]int64, hists map[string]HistogramSnapshot) {
	switch v.Kind() {
	case reflect.Map:
		if v.Type().Key().Kind() == reflect.String {
			for it := v.MapRange(); it.Next(); {
				flatten(prefix+it.Key().String()+".", it.Value(), counters, gauges, hists)
			}
		}
		return
	case reflect.Struct:
	default:
		return
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + snake(f.Name)
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			counters[name] = fv.Uint()
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			gauges[name] = fv.Int()
		case reflect.Struct:
			if h, ok := fv.Interface().(HistogramSnapshot); ok {
				hists[name] = h
			}
		}
	}
}

// snake turns a Go field name into a metric name: FlowTypeErrors is
// flow_type_errors, and a run of capitals is one word, so RTTNs is rtt_ns.
func snake(name string) string {
	var b strings.Builder
	for i, c := range name {
		if unicode.IsUpper(c) && i > 0 {
			prevLower := !unicode.IsUpper(rune(name[i-1]))
			nextLower := i+1 < len(name) && unicode.IsLower(rune(name[i+1]))
			if prevLower || nextLower {
				b.WriteByte('_')
			}
		}
		b.WriteRune(unicode.ToLower(c))
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
